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
//! - **`jns run` and `jns serve` take their limit flags the same way.**
//!   One request on one worker writes the same profile counters as a
//!   single VM run under the same flags, and both commands reject a
//!   malformed limit with the same message.
//! - **`--fuel` bounds a looping program.** `jns run` on both backends
//!   and every request of `jns serve` end with `out of fuel` instead of
//!   hanging.
//! - **`jns check` takes only `--stats`.** Every `jns run` flag is a
//!   usage error there, and no artifact gets written.

use jns_core::{Backend, Compiler, RunOptions, RunOutput};
use jns_obs::{Json, TraceBuffer, TraceEvent};
use jns_serve::{serve_batch, ServeConfig};
use std::path::Path;
use std::process::{Command, Output};

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

/// Runs the `jns` binary with `args`.
fn jns(args: &[&str], path: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_jns"))
        .args(args)
        .arg(path)
        .output()
        .expect("spawn jns")
}

/// The shared flags reach the engine through one `RunConfig` on both
/// commands: `serve --workers 1 --requests 1` counts exactly what `run
/// --vm` counts, under every limit flag, and both commands reject a
/// malformed limit alike.
#[test]
fn run_and_serve_apply_the_same_limit_flags() {
    let dir = std::env::temp_dir().join(format!("jns-run-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let churn = "class W { class Cell { int v = 0; } class Junk { } }
                 main {
                   final W.Cell c = new W.Cell();
                   while (c.v < 300) { final W.Junk j = new W.Junk(); c.v = c.v + 1; }
                   print c.v;
                 }";
    let programs = [PAPER_EXAMPLES[0], PAPER_FIGURES[0], ("churn", churn)];
    let flag_sets: [&[&str]; 4] = [
        &[],
        &["--no-fuse"],
        &["--heap-limit", "4", "--max-depth", "64"],
        &["--heap-limit", "16", "--nursery", "2"],
    ];
    let profile = dir.join("profile.json");
    let profile_arg = profile.to_str().expect("utf-8 temp path");
    let counters = |cmd: &[&str], flags: &[&str], path: &Path| {
        let args = [cmd, flags, &["--profile-json", profile_arg]].concat();
        let out = jns(&args, path);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let text = std::fs::read_to_string(&profile).expect("profile written");
        let doc = jns_obs::json::parse(text.trim()).expect("profile parses");
        doc.get("counters").expect("counters").to_string()
    };
    for (name, src) in programs {
        let path = dir.join(format!("{name}.jns"));
        std::fs::write(&path, src).expect("write program");
        for flags in flag_sets {
            let run = counters(&["run", "--vm"], flags, &path);
            let serve = counters(
                &["serve", "--workers", "1", "--requests", "1"],
                flags,
                &path,
            );
            assert_eq!(run, serve, "[{name}] {flags:?}");
        }
    }
    let path = dir.join("churn.jns");
    let bad = ["--heap-limit", "abc"];
    let run = jns(&[&["run", "--vm"][..], &bad].concat(), &path);
    let serve = jns(&[&["serve"][..], &bad].concat(), &path);
    for out in [&run, &serve] {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            "error: --heap-limit: bad number `abc`\n"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--fuel N` is one of the shared flags: a program that never stops ends
/// with `runtime error: out of fuel` (exit 1) on both `run` backends, and
/// on every request of a served batch, each of which runs exactly N + 1
/// instructions.
#[test]
fn fuel_flag_bounds_a_looping_program_on_run_and_serve() {
    let dir = std::env::temp_dir().join(format!("jns-fuel-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("loop.jns");
    std::fs::write(
        &path,
        "class A { class C { int n = 0; } }
         main { final A!.C c = new A.C(); while (0 < 1) { c.n = c.n + 1; } }",
    )
    .expect("write program");
    let out_of_fuel = |out: &Output| {
        assert_eq!(out.status.code(), Some(1), "{out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("runtime error: out of fuel"), "{err}");
        err.into_owned()
    };
    for backend in [&["run"][..], &["run", "--vm"]] {
        out_of_fuel(&jns(&[backend, &["--fuel", "10000"]].concat(), &path));
    }
    let serve = jns(
        &[
            "serve",
            "--workers",
            "2",
            "--requests",
            "4",
            "--fuel",
            "10000",
            "--stats",
        ],
        &path,
    );
    let err = out_of_fuel(&serve);
    assert!(err.contains("4 requests (0 ok)"), "{err}");
    assert!(err.contains("aggregate: steps 40004 "), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `jns check` takes `--stats` and the path, nothing else: each `jns run`
/// flag is a usage error that writes no file, where it used to be parsed
/// and silently ignored.
#[test]
fn check_takes_only_stats_and_rejects_run_flags() {
    let dir = std::env::temp_dir().join(format!("jns-check-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("prog.jns");
    std::fs::write(&path, PAPER_EXAMPLES[0].1).expect("write program");
    let artifact = dir.join("artifact");
    let artifact_arg = artifact.to_str().expect("utf-8 temp path");
    let flag_sets: [&[&str]; 4] = [
        &["--trace", artifact_arg],
        &["--profile-json", artifact_arg],
        &["--vm"],
        &["--heap-limit", "3"],
    ];
    for flags in flag_sets {
        let out = jns(&[&["check"][..], flags].concat(), &path);
        assert_eq!(out.status.code(), Some(1), "{flags:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{flags:?}: {out:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).starts_with("usage: "),
            "{flags:?}: {out:?}"
        );
        assert!(!artifact.exists(), "{flags:?} wrote {artifact:?}");
    }
    let out = jns(&["check", "--stats"], &path);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "ok\n");
    assert!(
        String::from_utf8_lossy(&out.stderr).starts_with("front end "),
        "{out:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
