//! Observability invariants, root-level (cross-crate):
//!
//! - **Tracing is unobservable.** Running every corpus program with a
//!   trace buffer attached produces byte-identical output, value, and
//!   statistics to running without one, on both backends. Every runtime
//!   hook must stay a branch on a `None` sink.
//! - **Trace streams are well-formed.** The JSONL export reads back
//!   through the one trace reader, `jns_obs::parse_jsonl`, into exactly
//!   the events written; `obs-check trace` and `jns trace-report` give a
//!   broken stream the same verdict and message; a serve trace starts
//!   with the same front-end phase events as a run's.
//! - **Profiles are well-formed and faithful.** The `jns-profile/1`
//!   document round-trips through the parser, validates, and its
//!   counters agree with the run's `Stats`; per-site IC hits/misses sum
//!   to the aggregate counters. `--stats` prints exactly the profile's
//!   counters, on `run` and on `serve`.
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
use jns_obs::{Json, TimedEvent, TraceBuffer, TraceEvent};
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
        assert_eq!(
            jns_obs::parse_jsonl(&text),
            Ok((buf.events().to_vec(), buf.dropped())),
            "{name}: the stream reads back as written"
        );
        for e in buf.events() {
            assert!(
                !matches!(
                    e.event,
                    TraceEvent::RequestStart { .. } | TraceEvent::RequestEnd { .. }
                ),
                "{name}: request event {e:?} in a plain run"
            );
        }
    }
}

/// The sums that must tie a profile back to the run that produced it.
fn assert_profile_faithful(name: &str, out: &RunOutput) {
    let doc = jns_obs::json::parse(&out.profile(name).to_json())
        .unwrap_or_else(|e| panic!("{name}: profile parses: {e}"));
    jns_obs::validate_profile(&doc).unwrap_or_else(|e| panic!("{name}: profile validates: {e}"));
    assert_eq!(
        counters_of(&doc),
        out.stats
            .counters()
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<Vec<_>>(),
        "{name}: the document carries the run's counters"
    );
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
    assert!(err.contains("\nsteps           40004\n"), "{err}");
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

/// A profile document's `counters`, in document order.
fn counters_of(doc: &Json) -> Vec<(String, u64)> {
    let Some(Json::Obj(counters)) = doc.get("counters") else {
        panic!("no counters object in {doc}");
    };
    counters
        .iter()
        .map(|(k, v)| (k.clone(), v.as_u64().expect("numeric counter")))
        .collect()
}

/// The program of CI's observability smoke: 200 allocations in a loop,
/// so a heap limit of 50 collects (four major collections without a
/// nursery).
const OBS_SMOKE: &str = "class A {
      class C { int x = 0; int get() { return this.x; } }
      class St { C c = new C(); int n = 200; }
    }
    main {
      final A!.St s = new A.St();
      while (0 < s.n) {
        s.c = new A.C { x = s.n };
        s.n = s.n - 1;
      }
      print s.c.get();
    }";

/// A fresh temporary directory holding `OBS_SMOKE` as `prog.jns`.
fn smoke_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jns-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    std::fs::write(dir.join("prog.jns"), OBS_SMOKE).expect("write program");
    dir
}

/// `text` with each event line re-encoded after `edit` has changed its
/// key/value pairs; `edit` also gets the line's (1-based) number.
fn edit_events(text: &str, edit: impl Fn(usize, &mut Vec<(String, Json)>)) -> String {
    let mut lines = text.lines();
    let mut out = format!("{}\n", lines.next().expect("header line"));
    for (n, line) in (2..).zip(lines) {
        let Ok(Json::Obj(mut pairs)) = jns_obs::json::parse(line) else {
            panic!("line {n} is not a JSON object: {line}");
        };
        edit(n, &mut pairs);
        out += &format!("{}\n", Json::Obj(pairs));
    }
    out
}

/// `obs-check trace` and `jns trace-report` read a stream with the same
/// reader: each broken copy of a recorded trace fails both with exit 1
/// and the reader's own message, and the intact stream passes both.
#[test]
fn broken_traces_get_one_verdict_from_both_readers() {
    let dir = smoke_dir("broken-trace");
    let trace = dir.join("t.jsonl");
    let out = jns(
        &[
            "run",
            "--vm",
            "--heap-limit",
            "50",
            "--trace",
            trace.to_str().expect("utf-8 temp path"),
        ],
        &dir.join("prog.jns"),
    );
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    let (events, _) = jns_obs::parse_jsonl(&text).expect("the recorded stream is valid");
    assert!(events.len() > 10, "{text}");
    assert!(
        events
            .iter()
            .any(|e| matches!(e.event, TraceEvent::Gc { kind: "major", .. })),
        "{text}"
    );
    let lines: Vec<&str> = text.lines().collect();
    let max_t = events.iter().map(|e| e.t_us).max().expect("events");
    let broken = [
        (
            "truncated",
            lines[..lines.len() - 10].join("\n") + "\n",
            "header declares",
        ),
        (
            "no-reclaimed",
            // Only `gc` events carry `reclaimed`.
            edit_events(&text, |_, pairs| pairs.retain(|(k, _)| k != "reclaimed")),
            "missing `reclaimed`",
        ),
        (
            "medium",
            text.replacen(r#""kind":"major""#, r#""kind":"medium""#, 1),
            "unknown gc kind \"medium\"",
        ),
        (
            "decreasing",
            // The first event moves past the last one's time.
            edit_events(&text, |n, pairs| {
                for (k, v) in pairs.iter_mut() {
                    if n == 2 && k == "t_us" {
                        *v = Json::UInt(max_t + 1);
                    }
                }
            }),
            "line 3: `t_us` decreases",
        ),
    ];
    let check = |path: &Path| {
        let obs = Command::new(env!("CARGO_BIN_EXE_obs-check"))
            .arg("trace")
            .arg(path)
            .output()
            .expect("spawn obs-check");
        (obs, jns(&["trace-report"], path))
    };
    let (obs, report) = check(&trace);
    assert!(obs.status.success(), "{obs:?}");
    assert!(report.status.success(), "{report:?}");
    for (name, copy, cause) in broken {
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, &copy).expect("write broken copy");
        let msg = jns_obs::parse_jsonl(&copy).expect_err(name);
        assert!(msg.contains(cause), "{name}: {msg}");
        let shown = path.display();
        let (obs, report) = check(&path);
        assert_eq!(obs.status.code(), Some(1), "{name}: {obs:?}");
        assert_eq!(
            String::from_utf8_lossy(&obs.stderr),
            format!("{shown}: invalid trace: {msg}\n"),
            "{name}"
        );
        assert_eq!(report.status.code(), Some(1), "{name}: {report:?}");
        assert!(report.stdout.is_empty(), "{name}: {report:?}");
        assert_eq!(
            String::from_utf8_lossy(&report.stderr),
            format!("error: {shown}: {msg}\n"),
            "{name}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `--stats` prints one `key value` line per counter, exactly the
/// `counters` object the same invocation's `--profile-json` writes, in
/// order: on `run --vm` and on `serve`, with the generational keys when
/// a nursery collected.
#[test]
fn stats_prints_exactly_the_profile_counters() {
    let dir = smoke_dir("stats-counters");
    let profile = dir.join("profile.json");
    let profile_arg = profile.to_str().expect("utf-8 temp path");
    let counter_line = |line: &str| -> Option<(String, u64)> {
        let (key, value) = line.split_once(' ')?;
        let is_key = !key.is_empty() && key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_');
        Some((key.to_string(), value.trim_start().parse().ok()?)).filter(|_| is_key)
    };
    let commands: [&[&str]; 2] = [
        &["run", "--vm"],
        &["serve", "--workers", "2", "--requests", "4"],
    ];
    let flag_sets: [&[&str]; 2] = [&[], &["--heap-limit", "50", "--nursery", "8"]];
    for cmd in commands {
        for flags in flag_sets {
            let args = [cmd, flags, &["--stats", "--profile-json", profile_arg]].concat();
            let out = jns(&args, &dir.join("prog.jns"));
            assert!(out.status.success(), "{args:?}: {out:?}");
            let text = std::fs::read_to_string(&profile).expect("profile written");
            let want = counters_of(&jns_obs::json::parse(text.trim()).expect("profile parses"));
            let stderr = String::from_utf8_lossy(&out.stderr);
            let got: Vec<(String, u64)> = stderr.lines().filter_map(counter_line).collect();
            assert_eq!(got, want, "{args:?}: {stderr}");
            let generational = want.iter().any(|(k, _)| k == "minor_runs");
            assert_eq!(generational, !flags.is_empty(), "{args:?}: {stderr}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A serve trace starts with the front-end phase events `run --vm
/// --trace` writes (same names, same order, at t_us 0 with no worker),
/// followed by the workers' request events.
#[test]
fn serve_traces_start_with_the_run_phases() {
    let dir = smoke_dir("serve-phases");
    let read = |cmd: &[&str]| -> Vec<TimedEvent> {
        let trace = dir.join("t.jsonl");
        let args = [cmd, &["--trace", trace.to_str().expect("utf-8 temp path")]].concat();
        let out = jns(&args, &dir.join("prog.jns"));
        assert!(out.status.success(), "{args:?}: {out:?}");
        let text = std::fs::read_to_string(&trace).expect("trace written");
        jns_obs::parse_jsonl(&text).expect("valid trace").0
    };
    let phases = |events: &[TimedEvent]| -> Vec<String> {
        events
            .iter()
            .map_while(|e| match &e.event {
                TraceEvent::Phase { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect()
    };
    let run = phases(&read(&["run", "--vm"]));
    assert_eq!(run.first().map(String::as_str), Some("parse"), "{run:?}");
    assert_eq!(run.last().map(String::as_str), Some("lower"), "{run:?}");
    let serve = read(&["serve", "--workers", "2", "--requests", "4"]);
    assert_eq!(phases(&serve), run);
    let (front, rest) = serve.split_at(run.len());
    assert!(
        front.iter().all(|e| e.t_us == 0 && e.worker.is_none()),
        "{front:?}"
    );
    assert!(
        matches!(
            rest.first().map(|e| &e.event),
            Some(TraceEvent::RequestStart { .. })
        ),
        "{rest:?}"
    );
    assert!(rest.iter().all(|e| e.worker.is_some()), "{rest:?}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A run that fails reports like one that finishes: `jns run` prints the
/// lines the program printed before the error, then the error, the
/// `--stats` counters, and writes every artifact — and exits 1. On both
/// backends (the profile on `--vm` only).
#[test]
fn failed_run_keeps_its_output_and_artifacts() {
    let dir = std::env::temp_dir().join(format!("jns-failed-run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("loop.jns");
    std::fs::write(
        &path,
        "class A { class C { int n = 0; } }
         main { final A!.C c = new A.C(); print 7; while (0 < 1) { c.n = c.n + 1; } }",
    )
    .expect("write program");
    let trace = dir.join("t.jsonl");
    let profile = dir.join("p.json");
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let profile_arg = profile.to_str().expect("utf-8 temp path");
    let limits = ["--fuel", "1000", "--stats", "--trace", trace_arg];
    for backend in [
        &["run"][..],
        &["run", "--vm", "--profile-json", profile_arg],
    ] {
        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&profile).ok();
        let args = [backend, &limits].concat();
        let out = jns(&args, &path);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "7\n", "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("runtime error: out of fuel"),
            "{args:?}: {err}"
        );
        assert!(err.contains("\nallocs          1\n"), "{args:?}: {err}");
        let text = std::fs::read_to_string(&trace).expect("trace written");
        jns_obs::parse_jsonl(&text).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        if args.contains(&"--vm") {
            let text = std::fs::read_to_string(&profile).expect("profile written");
            let doc = jns_obs::json::parse(text.trim()).expect("profile parses");
            jns_obs::validate_profile(&doc).unwrap_or_else(|e| panic!("{args:?}: {e}"));
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A trace that outgrew its buffer gets one warning, with the header's
/// drop count, from `run --trace`, `serve --stats` and `trace-report`
/// alike (`jns_obs::dropped_warning`).
#[test]
fn dropped_trace_events_get_one_warning_everywhere() {
    let dir = std::env::temp_dir().join(format!("jns-dropped-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("churn.jns");
    // 150,000 allocations under a heap limit of 2: one `gc` event per two
    // allocations overflows the 65,536-event buffer.
    std::fs::write(
        &path,
        "class W { class Cell { int v = 0; } class Junk { } }
         main {
           final W.Cell c = new W.Cell();
           while (c.v < 150000) { final W.Junk j = new W.Junk(); c.v = c.v + 1; }
           print c.v;
         }",
    )
    .expect("write program");
    let trace = dir.join("t.jsonl");
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let dropped = || {
        let text = std::fs::read_to_string(&trace).expect("trace written");
        let (_, dropped) = jns_obs::parse_jsonl(&text).expect("valid trace");
        assert!(dropped > 0, "nothing dropped");
        jns_obs::dropped_warning(dropped)
    };
    let limit = ["--heap-limit", "2", "--trace", trace_arg];
    let run = jns(&[&["run", "--vm"][..], &limit].concat(), &path);
    assert!(run.status.success(), "{run:?}");
    let warning = dropped();
    assert!(
        String::from_utf8_lossy(&run.stderr).contains(&warning),
        "{run:?}"
    );
    let report = jns(&["trace-report"], &trace);
    assert!(report.status.success(), "{report:?}");
    assert!(
        String::from_utf8_lossy(&report.stdout).contains(&warning),
        "{report:?}"
    );
    let serve_cmd = ["serve", "--workers", "1", "--requests", "1", "--stats"];
    let serve = jns(&[&serve_cmd[..], &limit].concat(), &path);
    assert!(serve.status.success(), "{serve:?}");
    assert!(
        String::from_utf8_lossy(&serve.stderr).contains(&dropped()),
        "{serve:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
