//! Observability invariants, root-level (cross-crate):
//!
//! - **Tracing is unobservable.** Running every corpus program with a
//!   trace buffer attached produces byte-identical output, value, and
//!   statistics to running without one, on both backends. Every runtime
//!   hook must stay a branch on a `None` sink.
//! - **Trace streams are well-formed.** The JSONL export parses line by
//!   line, carries the `jns-trace/1` schema header, and every event has
//!   its tag's required fields.
//! - **Profiles are well-formed and faithful.** The `jns-profile/1`
//!   document round-trips through the parser, validates, and its
//!   counters agree with the run's `Stats`; per-site IC hits/misses sum
//!   to the aggregate counters.
//! - **Serve telemetry adds up.** Histogram counts equal the response
//!   count, per-worker request counts sum to the total, the queue
//!   high-water mark respects capacity, and the traced request
//!   start/end events pair up per id.

use jns_core::{Backend, Compiler, RunOptions, RunOutput};
use jns_obs::{Json, TraceBuffer, TraceEvent};
use jns_serve::{serve_batch, ServeConfig};

mod corpus;
use corpus::{PAPER_EXAMPLES, PAPER_FIGURES};

fn corpus_programs() -> impl Iterator<Item = (&'static str, &'static str)> {
    PAPER_EXAMPLES.iter().chain(PAPER_FIGURES.iter()).copied()
}

/// Run options with a default-capacity trace buffer attached.
fn traced_options() -> RunOptions {
    RunOptions {
        trace: Some(TraceBuffer::new(jns_obs::DEFAULT_TRACE_CAP)),
        ..RunOptions::default()
    }
}

/// The observable footprint of a run. `Stats` is compared via its Debug
/// rendering, which covers every counter field.
fn footprint(out: &RunOutput) -> (Vec<String>, String, String) {
    (
        out.output.clone(),
        format!("{:?}", out.value),
        format!("{:?}", out.stats),
    )
}

#[test]
fn tracing_does_not_change_observable_behaviour_on_either_backend() {
    for (name, src) in corpus_programs() {
        let compiled = Compiler::new()
            .compile(src)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        for backend in [Backend::TreeWalk, Backend::Vm] {
            let plain = compiled.run_on(backend);
            let traced = compiled.run_with(backend, traced_options());
            match (plain, traced) {
                (Ok(p), Ok(t)) => {
                    assert_eq!(
                        footprint(&p),
                        footprint(&t),
                        "{name} on {backend:?}: tracing changed the run"
                    );
                    assert_eq!(
                        p.chunk_profile, t.chunk_profile,
                        "{name} on {backend:?}: tracing changed the chunk profile"
                    );
                    assert!(
                        t.trace.is_some(),
                        "{name}: traced run must return its buffer"
                    );
                    assert!(
                        p.trace.is_none(),
                        "{name}: untraced run must not invent a buffer"
                    );
                }
                (Err(p), Err(t)) => assert_eq!(
                    p.to_string(),
                    t.to_string(),
                    "{name} on {backend:?}: tracing changed the error"
                ),
                (p, t) => {
                    panic!("{name} on {backend:?}: tracing flipped the outcome: {p:?} vs {t:?}")
                }
            }
        }
    }
}

#[test]
fn corpus_trace_streams_are_schema_valid_jsonl() {
    for (name, src) in corpus_programs() {
        let compiled = Compiler::new()
            .with_heap_limit(64) // force GC events into some traces
            .compile(src)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        let Ok(out) = compiled.run_with(Backend::Vm, traced_options()) else {
            continue; // error-path programs covered by the differential above
        };
        let buf = out.trace.expect("traced run returns its buffer");
        let text = jns_obs::jsonl(buf.events(), buf.dropped());
        let mut lines = text.lines();
        let header = jns_obs::json::parse(lines.next().expect("header line"))
            .unwrap_or_else(|e| panic!("{name}: header parses: {e}"));
        assert_eq!(
            header.get("schema").and_then(Json::as_str),
            Some(jns_obs::TRACE_SCHEMA),
            "{name}: schema id"
        );
        assert_eq!(
            header.get("events").and_then(Json::as_u64),
            Some(buf.events().len() as u64),
            "{name}: header event count"
        );
        let mut last_t = 0;
        for (i, line) in lines.enumerate() {
            let ev = jns_obs::json::parse(line)
                .unwrap_or_else(|e| panic!("{name} line {}: parses: {e}", i + 2));
            let t = ev
                .get("t_us")
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{name} line {}: t_us", i + 2));
            assert!(t >= last_t, "{name} line {}: timestamps ordered", i + 2);
            last_t = t;
            let tag = ev.get("ev").and_then(Json::as_str).expect("ev tag");
            let required: &[&str] = match tag {
                "gc" => &["reclaimed", "live", "peak_live"],
                "ic_miss" => &["kind", "site", "view"],
                "phase" => &["name", "micros"],
                other => panic!("{name}: unexpected event {other:?} in a plain run"),
            };
            for key in required {
                assert!(
                    ev.get(key).is_some(),
                    "{name} line {}: {tag} needs {key}",
                    i + 2
                );
            }
        }
    }
}

/// The sums that must tie a profile back to the run that produced it.
fn assert_profile_faithful(name: &str, out: &RunOutput) {
    let profile = jns_obs::RunProfile {
        backend: "vm".into(),
        program: name.into(),
        counters: vec![
            ("steps", out.stats.steps),
            ("ic_hits", out.stats.ic_hits),
            ("ic_misses", out.stats.ic_misses),
        ],
        chunks: out.chunk_profile.clone(),
        ic_sites: out.ic_profile.clone(),
        histograms: Vec::new(),
        samples: None,
    };
    let doc = jns_obs::json::parse(&profile.to_json())
        .unwrap_or_else(|e| panic!("{name}: profile parses: {e}"));
    jns_obs::validate_profile(&doc).unwrap_or_else(|e| panic!("{name}: profile validates: {e}"));
    let hits: u64 = out.ic_profile.iter().map(|s| s.hits).sum();
    let misses: u64 = out.ic_profile.iter().map(|s| s.misses).sum();
    assert_eq!(
        hits, out.stats.ic_hits,
        "{name}: per-site hits sum to the aggregate"
    );
    assert_eq!(
        misses, out.stats.ic_misses,
        "{name}: per-site misses sum to the aggregate"
    );
    let steps: u64 = out.chunk_profile.iter().map(|(_, n)| n).sum();
    assert_eq!(
        steps, out.stats.steps,
        "{name}: per-chunk instructions sum to steps"
    );
}

#[test]
fn vm_profiles_validate_and_tie_back_to_stats() {
    let mut ran = 0;
    for (name, src) in corpus_programs() {
        let compiled = Compiler::new()
            .with_backend(Backend::Vm)
            .compile(src)
            .unwrap_or_else(|e| panic!("{name} compiles: {e}"));
        let Ok(out) = compiled.run() else { continue };
        assert_profile_faithful(name, &out);
        ran += 1;
    }
    assert!(
        ran > 5,
        "corpus should contribute several runnable programs, got {ran}"
    );
}

#[test]
fn serve_telemetry_accounts_for_every_request() {
    const REQUESTS: u64 = 24;
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(&jns_serve::workload::service_dispatch(10))
        .expect("workload compiles");
    let cfg = ServeConfig {
        workers: 3,
        queue_cap: 4,
        trace: true,
        ..ServeConfig::default()
    };
    let report = serve_batch(&compiled, &cfg, REQUESTS);
    assert_eq!(report.responses.len(), REQUESTS as usize);
    let t = &report.telemetry;
    assert_eq!(
        t.queue_wait.count(),
        REQUESTS,
        "one queue-wait sample per request"
    );
    assert_eq!(t.exec.count(), REQUESTS, "one exec sample per request");
    assert_eq!(t.worker_requests.len(), 3, "one request counter per worker");
    assert_eq!(
        t.worker_requests.iter().sum::<u64>(),
        REQUESTS,
        "per-worker request counts sum to the batch size"
    );
    assert!(
        t.queue_high_water <= 4,
        "high water ({}) cannot exceed queue capacity",
        t.queue_high_water
    );
    // Per-response latency fields feed the same histograms.
    assert!(report.responses.iter().all(|r| r.exec_us <= t.exec.max()));

    // Request start/end events pair up, each exactly once per id.
    let mut started = vec![0u32; REQUESTS as usize];
    let mut ended = vec![0u32; REQUESTS as usize];
    for e in &t.trace_events {
        match &e.event {
            TraceEvent::RequestStart { id } => started[*id as usize] += 1,
            TraceEvent::RequestEnd { id, ok, .. } => {
                assert!(*ok, "workload requests succeed");
                ended[*id as usize] += 1;
            }
            _ => {}
        }
        assert!(e.worker.is_some(), "serve events carry their worker id");
    }
    assert!(
        started.iter().all(|&n| n == 1),
        "every id starts exactly once"
    );
    assert!(ended.iter().all(|&n| n == 1), "every id ends exactly once");
    assert!(
        t.trace_events.windows(2).all(|w| w[0].t_us <= w[1].t_us),
        "merged events are time-ordered"
    );
}

#[test]
fn serve_tracing_does_not_change_responses() {
    const REQUESTS: u64 = 12;
    let compiled = Compiler::new()
        .with_backend(Backend::Vm)
        .compile(&jns_serve::workload::service_dispatch(8))
        .expect("workload compiles");
    let base = ServeConfig {
        workers: 2,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let traced_cfg = ServeConfig {
        trace: true,
        ..base.clone()
    };
    let plain = serve_batch(&compiled, &base, REQUESTS);
    let traced = serve_batch(&compiled, &traced_cfg, REQUESTS);
    // Compare only the scheduling-independent observables: which worker
    // serves a request (and hence how warm its inline caches are) varies
    // run to run regardless of tracing, so per-request cache stats are
    // out of scope here — the single-VM differential above pins those.
    type Stripped = Vec<(u64, Vec<String>, Option<String>, u64, u64)>;
    let strip = |r: &jns_serve::ServeReport| -> Stripped {
        r.responses
            .iter()
            .map(|resp| {
                (
                    resp.id,
                    resp.output.clone(),
                    resp.value.clone(),
                    resp.stats.steps,
                    resp.stats.allocs,
                )
            })
            .collect()
    };
    assert_eq!(
        strip(&plain),
        strip(&traced),
        "tracing changed served responses"
    );
    assert!(
        plain.telemetry.trace_events.is_empty(),
        "no events without trace"
    );
    assert!(
        !traced.telemetry.trace_events.is_empty(),
        "tracing collects events"
    );
    // Scheduling-independent aggregates agree too.
    let agg = |r: &jns_serve::ServeReport| {
        (
            r.aggregate.steps,
            r.aggregate.allocs,
            r.aggregate.calls,
            r.aggregate.views_explicit,
            r.aggregate.views_implicit,
        )
    };
    assert_eq!(agg(&plain), agg(&traced), "tracing changed aggregate stats");
}
