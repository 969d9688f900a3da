//! `jns` — command-line interpreter and serving driver for the J&s
//! language.
//!
//! Usage:
//!   jns run [--vm] [--stats] [--no-fuse] [--fuel N] [--max-depth N]
//!           [--heap-limit N] [--nursery N] [--trace PATH]
//!           [--profile-json PATH] [--profile-folded PATH]
//!           [--sample-stride N] <file.jns>
//!       parse, type-check, and run a program (tree-walking interpreter
//!       by default; `--vm` selects the bytecode VM; `--stats` prints
//!       the front-end times, the run's counters — one `key value` line
//!       each, exactly the `counters` `--profile-json` writes — the
//!       still-polymorphic inline-cache sites and the VM's per-chunk
//!       instruction profile; `--no-fuse` disables the dispatch engine's
//!       superinstruction fusion (an ablation knob); `--fuel` bounds
//!       the run to N steps (AST nodes on the tree-walker, instructions
//!       on the VM; no bound by default), so a looping program ends
//!       with `runtime error: out of fuel`; `--max-depth`
//!       bounds J&s recursion — both backends run on explicit heap
//!       stacks, so deep limits are safe and exhaustion is a clean
//!       runtime error;
//!       `--heap-limit` bounds the live heap — reaching it triggers a
//!       mark-compact tracing collection on the shared heap;
//!       `--nursery` makes that collector generational (with a heap
//!       limit set): new objects bump-allocate into a nursery of N
//!       objects, a full nursery runs a cheap minor collection that
//!       promotes survivors, and the full mark-compact becomes the
//!       major collection;
//!       `--trace` writes structured runtime events — compile phases,
//!       GC runs, inline-cache misses — as JSON Lines;
//!       `--profile-json` (VM only) writes the machine-readable
//!       `jns-profile/1` document: counters, per-chunk instruction
//!       counts, and per-site inline-cache hit/miss attribution;
//!       `--profile-folded` (VM only) writes the sampling profiler's
//!       collapsed stacks, one sample every `--sample-stride`
//!       instructions (default 101). A run that ends in a runtime error
//!       still prints the program's lines, then the error, `--stats`
//!       and every artifact, and exits 1)
//!   jns check [--stats] <file.jns>
//!       type-check only; `--stats` prints the parse and check times,
//!       the check split into resolve, sharing, bodies and constraints
//!       (`jns run --stats` prints the same line first). `--stats` is
//!       the only flag: a `jns run` flag here is a usage error
//!   jns serve [--workers N] [--requests N] [--queue N] [RUN FLAGS] <file.jns>
//!       compile once, then replay the program's entrypoint N times
//!       across a pool of worker VMs and report throughput. RUN FLAGS
//!       are every `jns run` flag but `--vm`, parsed by the same code
//!       into the same `jns_core::RunConfig`: `--fuel` bounds every
//!       request, the heap resets per
//!       request, and with `--heap-limit` each worker also collects
//!       *within* a request; `--stats` adds the aggregate counters
//!       (printed as `run --stats` prints a run's), latency percentiles
//!       and queue back-pressure gauges, `--trace` writes the front-end
//!       phase events followed by every worker's event buffer, merged
//!       into one JSONL stream, `--profile-json` exports the aggregate
//!       counters plus queue-wait/exec histograms
//!   jns bench [--suite NAME]… [--repeat N] [--warmup N] [--out-dir DIR]
//!       the bench driver: runs the benchmark suites (`vm`, `dispatch`,
//!       `gc`, `serve`, `paper` — all five by default) with warmup
//!       passes and repeated measured runs, writes one `jns-bench/2`
//!       document per suite (`DIR/BENCH_<suite>.json`, DIR defaulting to
//!       `target/bench`), then checks each measured suite's same-run
//!       gates (`bench::workloads::gates`) and prints one line per gate;
//!       exit 0 = every gate held, 3 = a gate's fast arm was not faster
//!       than its slow arm, 1 = bad arguments, I/O error or a gate
//!       naming an arm its suite did not produce
//!   jns trace-report <file.jsonl>
//!       analyzes a `--trace` JSONL stream: phase timings, request
//!       latency table, GC pauses, the top inline-cache-miss sites, and
//!       a warning when events were dropped. It reads the stream with
//!       `jns_obs::parse_jsonl`, as `obs-check trace` does: a stream
//!       that fails there is an error here (exit 1, same message)
//!   jns --help

use jns_core::{Backend, Compiled, Compiler, RunConfig, RunOptions, RunOutput, Stats};
use jns_obs::{
    BenchDoc, BenchEntry, Histogram, RunProfile, SampleConfig, TimedEvent, TraceBuffer, TraceEvent,
    GC_KINDS,
};
use jns_serve::{serve_batch, ServeConfig};
use std::process::ExitCode;

/// Default sampling stride when `--profile-folded` is given without
/// `--sample-stride`: prime, so the sampler never locks onto loop
/// harmonics of small power-of-two bodies.
const DEFAULT_SAMPLE_STRIDE: u64 = 101;

fn usage() -> ExitCode {
    eprintln!(
        "usage: jns run [--vm] [--stats] [--no-fuse] [--fuel N] [--max-depth N] [--heap-limit N] [--nursery N] [--trace PATH] [--profile-json PATH] [--profile-folded PATH] [--sample-stride N] <file.jns>\n\
         \x20      jns check [--stats] <file.jns>\n\
         \x20      jns serve [--workers N] [--requests N] [--queue N] [--no-fuse] [--fuel N] [--max-depth N] [--heap-limit N] [--nursery N] [--stats] [--trace PATH] [--profile-json PATH] [--profile-folded PATH] [--sample-stride N] <file.jns>\n\
         \x20      jns bench [--suite NAME]... [--repeat N] [--warmup N] [--out-dir DIR]\n\
         \x20      jns trace-report <file.jsonl>"
    );
    ExitCode::FAILURE
}

/// Pulls `--flag N` out of `args`; returns the default when absent.
fn take_opt(args: &mut Vec<String>, flag: &str, default: u64) -> Result<u64, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(default);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: bad number `{v}`"))
}

/// Pulls `--flag N` out of `args`; `None` when absent. Reports a
/// malformed value itself.
fn take_num(args: &mut Vec<String>, flag: &str) -> Result<Option<u64>, ExitCode> {
    if !args.iter().any(|a| a == flag) {
        return Ok(None);
    }
    take_opt(args, flag, 0).map(Some).map_err(|m| {
        eprintln!("error: {m}");
        ExitCode::FAILURE
    })
}

fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != flag);
    args.len() != before
}

/// Pulls `--flag PATH` out of `args`; `None` when absent.
fn take_path(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, ExitCode> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        eprintln!("error: {flag} needs a path");
        return Err(ExitCode::FAILURE);
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Writes `contents` to `path`, reporting failure as an exit code.
fn write_text(path: &str, contents: &str) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("error: cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The flags `run` and `serve` share.
struct RunFlags {
    stats: bool,
    fuse: bool,
    run: RunConfig,
    trace: Option<String>,
    profile_json: Option<String>,
    profile_folded: Option<String>,
    /// `--sample-stride` as given; [`RunFlags::sampler`] decides whether
    /// the sampler is armed.
    sample_stride: Option<u64>,
}

impl RunFlags {
    /// Pulls the shared flags out of `args` (fields are parsed in the
    /// order written), reporting a malformed one itself.
    fn take(args: &mut Vec<String>) -> Result<RunFlags, ExitCode> {
        Ok(RunFlags {
            stats: take_flag(args, "--stats"),
            fuse: !take_flag(args, "--no-fuse"),
            run: RunConfig {
                fuel: take_num(args, "--fuel")?,
                max_depth: take_num(args, "--max-depth")?
                    .map(|n| n.min(u64::from(u32::MAX)) as u32),
                heap_limit: take_num(args, "--heap-limit")?.map(|n| n.max(1) as usize),
                nursery: take_num(args, "--nursery")?.map(|n| n.max(1) as usize),
            },
            trace: take_path(args, "--trace")?,
            profile_json: take_path(args, "--profile-json")?,
            profile_folded: take_path(args, "--profile-folded")?,
            sample_stride: take_num(args, "--sample-stride")?.map(|n| n.max(1)),
        })
    }

    /// The compiler these flags configure for `backend`.
    fn compiler(&self, backend: Backend) -> Compiler {
        Compiler::new()
            .with_backend(backend)
            .with_fusion(self.fuse)
            .with_config(self.run)
    }

    /// The stride to arm the VM's sampler with: only when an output will
    /// carry the samples — `--profile-folded`, or `--profile-json` with
    /// an explicit `--sample-stride`.
    fn sampler(&self) -> Option<u64> {
        (self.profile_folded.is_some()
            || (self.profile_json.is_some() && self.sample_stride.is_some()))
        .then(|| self.sample_stride.unwrap_or(DEFAULT_SAMPLE_STRIDE))
    }
}

/// Writes the `--trace`, `--profile-folded` and `--profile-json`
/// artifacts of a run or a served batch; `who` names what executed, for
/// the no-samples warning.
fn write_artifacts(
    flags: &RunFlags,
    events: &[TimedEvent],
    dropped: u64,
    profile: RunProfile,
    who: &str,
) -> Result<(), ExitCode> {
    if let Some(p) = &flags.trace {
        write_text(p, &jns_obs::jsonl(events, dropped))?;
    }
    if let Some(p) = &flags.profile_folded {
        let stacks = profile
            .samples
            .as_ref()
            .map(|s| &s.stacks[..])
            .unwrap_or(&[]);
        if stacks.is_empty() {
            eprintln!(
                "warning: no samples taken — {who} executed fewer \
                 instructions than the sampling stride ({}); lower \
                 --sample-stride",
                flags.sample_stride.unwrap_or(DEFAULT_SAMPLE_STRIDE)
            );
        }
        write_text(p, &jns_obs::folded_lines(stacks))?;
    }
    if let Some(p) = &flags.profile_json {
        write_text(p, &(profile.to_json() + "\n"))?;
    }
    Ok(())
}

fn print_front_end(compiled: &Compiled) {
    let t = compiled.timings();
    let c = t.check_phases;
    eprintln!(
        "front end       parse {} µs, check {} µs (resolve {}, sharing {}, bodies {}, constraints {})",
        t.parse_us, t.check_us, c.resolve_us, c.sharing_us, c.bodies_us, c.constraints_us
    );
}

/// The front-end phase events of `compiled`: parse, check and its four
/// phases, and `lower` when `backend` runs the lowered bytecode.
fn phase_events(compiled: &Compiled, backend: Backend) -> Vec<TraceEvent> {
    let t = compiled.timings();
    let c = t.check_phases;
    let mut phases = vec![
        ("parse", t.parse_us),
        ("check", t.check_us),
        ("check.resolve", c.resolve_us),
        ("check.sharing", c.sharing_us),
        ("check.bodies", c.bodies_us),
        ("check.constraints", c.constraints_us),
    ];
    if backend == Backend::Vm {
        phases.push(("lower", compiled.bytecode().lower_micros));
    }
    phases
        .into_iter()
        .map(|(name, micros)| TraceEvent::Phase {
            name: name.to_string(),
            micros,
        })
        .collect()
}

/// Prints the counters `--profile-json` writes, one `key value` line each.
fn print_counters(stats: &Stats) {
    for (key, value) in stats.counters() {
        eprintln!("{key:<15} {value}");
    }
}

fn print_stats(out: &RunOutput, total_chunks: usize) {
    print_counters(&out.stats);
    // Polymorphic sites scan more than one cache entry per probe;
    // listing them points at the next optimisation target.
    let mut poly: Vec<_> = out.ic_profile.iter().filter(|p| p.entries >= 2).collect();
    poly.sort_by(|a, b| {
        (b.hits + b.misses)
            .cmp(&(a.hits + a.misses))
            .then(a.name.cmp(&b.name))
    });
    if !poly.is_empty() {
        eprintln!("  still-polymorphic sites:");
        for p in poly.iter().take(8) {
            eprintln!(
                "  {:>10}  {} ({} views, {} misses)",
                p.hits + p.misses,
                p.name,
                p.entries,
                p.misses
            );
        }
    }
    if !out.chunk_profile.is_empty() {
        // The profile is already deterministically ordered (count
        // descending, chunk name as tiebreak), so repeated runs of a
        // deterministic program print identical blocks.
        let total: u64 = out.chunk_profile.iter().map(|(_, n)| n).sum();
        let shown = out.chunk_profile.len().min(8);
        let top: u64 = out.chunk_profile.iter().take(shown).map(|(_, n)| n).sum();
        let pct = if total > 0 {
            100.0 * top as f64 / total as f64
        } else {
            100.0
        };
        eprintln!(
            "hottest chunks ({shown} of {} executed, {total_chunks} compiled; top {shown} cover {pct:.1}% of {total} executed instructions):",
            out.chunk_profile.len(),
        );
        for (name, n) in out.chunk_profile.iter().take(8) {
            eprintln!("  {n:>10}  {name}");
        }
    }
}

fn compile_file(path: &str, compiler: Compiler) -> Result<Compiled, ExitCode> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    match compiler.compile(&src) {
        Ok(c) => Ok(c),
        Err(e) => {
            eprintln!("{e}");
            if let jns_core::Error::Parse(pe) = &e {
                eprintln!("{}", jns_syntax::render_snippet(&src, pe.span));
            }
            Err(ExitCode::FAILURE)
        }
    }
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let backend = if take_flag(&mut args, "--vm") {
        Backend::Vm
    } else {
        Backend::TreeWalk
    };
    let flags = match RunFlags::take(&mut args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    if flags.profile_json.is_some() && backend != Backend::Vm {
        eprintln!(
            "error: --profile-json needs --vm (chunk and inline-cache profiles are VM state)"
        );
        return ExitCode::FAILURE;
    }
    if (flags.profile_folded.is_some() || flags.sample_stride.is_some()) && backend != Backend::Vm {
        eprintln!("error: --profile-folded / --sample-stride need --vm (the sampler lives in the VM dispatch loop)");
        return ExitCode::FAILURE;
    }
    let [_, path] = args.as_slice() else {
        return usage();
    };
    let path = path.clone();
    let compiled = match compile_file(&path, flags.compiler(backend)) {
        Ok(c) => c,
        Err(code) => return code,
    };
    // With --trace, seed the buffer with the front-end phase events
    // before the run appends GC and inline-cache-miss events.
    let trace_buf = flags.trace.as_ref().map(|_| {
        let mut buf = TraceBuffer::new(jns_obs::DEFAULT_TRACE_CAP);
        for e in phase_events(&compiled, backend) {
            buf.push(e);
        }
        buf
    });
    let opts = RunOptions {
        trace: trace_buf,
        sample_stride: flags.sampler(),
    };
    // A failed run reports like a finished one: its printed lines, then
    // the error, its counters and its artifacts — and exits 1.
    let (out, failed) = match compiled.run_with(backend, opts) {
        Ok(out) => (out, None),
        Err(jns_core::Error::Runtime(e, out)) => (*out, Some(e)),
        Err(e) => {
            eprintln!("runtime error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &out.output {
        println!("{line}");
    }
    if let Some(e) = &failed {
        eprintln!("runtime error: {e}");
    }
    if flags.stats {
        print_front_end(&compiled);
        let total_chunks = match backend {
            Backend::Vm => compiled.bytecode().chunks.len(),
            Backend::TreeWalk => 0,
        };
        print_stats(&out, total_chunks);
    }
    let (events, dropped) = out
        .trace
        .as_ref()
        .map_or((&[][..], 0), |b| (b.events(), b.dropped()));
    if dropped > 0 {
        eprintln!("{}", jns_obs::dropped_warning(dropped));
    }
    match write_artifacts(&flags, events, dropped, out.profile(&path), "the program") {
        Ok(()) if failed.is_none() => ExitCode::SUCCESS,
        Ok(()) => ExitCode::FAILURE,
        Err(code) => code,
    }
}

/// `jns check [--stats] <file.jns>`: any other argument is a usage error.
fn cmd_check(mut args: Vec<String>) -> ExitCode {
    let stats = take_flag(&mut args, "--stats");
    let [_, path] = args.as_slice() else {
        return usage();
    };
    if path.starts_with("--") {
        return usage();
    }
    match compile_file(path, Compiler::new()) {
        Ok(compiled) => {
            println!("ok");
            if stats {
                print_front_end(&compiled);
            }
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn report_serve(report: &jns_serve::ServeReport, show_stats: bool) {
    let ok = report.responses.iter().filter(|r| r.is_ok()).count();
    eprintln!(
        "{} requests ({} ok) on {} workers in {:.3}s — {:.1} req/s, {} heap objects reclaimed",
        report.responses.len(),
        ok,
        report.workers,
        report.elapsed.as_secs_f64(),
        report.throughput_rps(),
        report.heap_reclaimed,
    );
    if show_stats {
        print_counters(&report.aggregate);
        let t = &report.telemetry;
        if t.exec.count() > 0 {
            eprintln!("latency: queue wait  {}", t.queue_wait.render_line("µs"));
            eprintln!("latency: execution   {}", t.exec.render_line("µs"));
        }
        eprintln!(
            "queue: high water {} waiting, {} submits blocked on back-pressure",
            t.queue_high_water, t.submit_blocked
        );
        let per_worker: Vec<String> = t.worker_requests.iter().map(u64::to_string).collect();
        eprintln!("per-worker requests: [{}]", per_worker.join(", "));
        if t.trace_dropped > 0 {
            eprintln!("{}", jns_obs::dropped_warning(t.trace_dropped));
        }
    }
}

fn cmd_serve(mut args: Vec<String>) -> ExitCode {
    let workers = match take_opt(&mut args, "--workers", 0) {
        Ok(0) => ServeConfig::default().workers as u64,
        Ok(n) => n,
        Err(m) => {
            eprintln!("error: {m}");
            return ExitCode::FAILURE;
        }
    };
    let (requests, queue) = match (
        take_opt(&mut args, "--requests", 64),
        take_opt(&mut args, "--queue", 128),
    ) {
        (Ok(r), Ok(q)) => (r, q),
        (Err(m), _) | (_, Err(m)) => {
            eprintln!("error: {m}");
            return ExitCode::FAILURE;
        }
    };
    let flags = match RunFlags::take(&mut args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let [_, path] = args.as_slice() else {
        return usage();
    };
    let compiled = match compile_file(path, flags.compiler(Backend::Vm)) {
        Ok(c) => c,
        Err(code) => return code,
    };
    // Destructured in full, so a new `RunConfig` field cannot be dropped
    // silently on its way to the pool.
    let RunConfig {
        fuel,
        max_depth,
        heap_limit,
        nursery,
    } = flags.run;
    let cfg = ServeConfig {
        workers: workers.max(1) as usize,
        queue_cap: queue.max(1) as usize,
        fuel,
        max_depth,
        heap_limit,
        nursery,
        trace: flags.trace.is_some(),
        trace_cap: jns_obs::DEFAULT_TRACE_CAP,
        sample_stride: flags.sampler(),
    };
    let report = serve_batch(&compiled, &cfg, requests);
    let t = &report.telemetry;
    // The front-end phases come first, at t_us 0 with no worker.
    let events: Vec<TimedEvent> = phase_events(&compiled, Backend::Vm)
        .into_iter()
        .map(|event| TimedEvent {
            t_us: 0,
            worker: None,
            event,
        })
        .chain(t.trace_events.iter().cloned())
        .collect();
    if let Err(code) = write_artifacts(
        &flags,
        &events,
        t.trace_dropped,
        report.profile(path),
        "requests",
    ) {
        return code;
    }
    // Print one representative output (all requests replay the same
    // entrypoint; the determinism suite asserts they agree).
    if let Some(first) = report.responses.first() {
        for line in &first.output {
            println!("{line}");
        }
        if let Some(err) = &first.error {
            eprintln!("runtime error: {err}");
        }
    }
    report_serve(&report, flags.stats);
    if report.responses.iter().all(|r| r.is_ok()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `jns bench`: measures the requested suites with warmup + repeated
/// runs, writes one `BENCH_<suite>.json` per suite, and checks each
/// suite's same-run gates. Exit 3 once every document is written if a
/// gate failed; 1 if a gate names an arm its suite did not produce.
fn cmd_bench(mut args: Vec<String>) -> ExitCode {
    let mut suites: Vec<String> = Vec::new();
    loop {
        match take_path(&mut args, "--suite") {
            Ok(Some(s)) => suites.push(s),
            Ok(None) => break,
            Err(code) => return code,
        }
    }
    let (repeat, warmup) = match (
        take_opt(&mut args, "--repeat", 5),
        take_opt(&mut args, "--warmup", 1),
    ) {
        (Ok(r), Ok(w)) => (r.max(1) as u32, w as u32),
        (Err(m), _) | (_, Err(m)) => {
            eprintln!("error: {m}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = match take_path(&mut args, "--out-dir") {
        Ok(d) => d.unwrap_or_else(|| "target/bench".to_string()),
        Err(code) => return code,
    };
    if args.len() != 1 {
        return usage();
    }
    // Fail before measuring anything, not after the first suites.
    let known = bench::workloads::SUITES;
    if let Some(bad) = suites.iter().find(|s| !known.contains(&s.as_str())) {
        eprintln!("error: unknown suite `{bad}` (valid: {})", known.join(", "));
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    if suites.is_empty() {
        suites = known.iter().map(|s| s.to_string()).collect();
    }
    let cfg = SampleConfig {
        warmup,
        runs: repeat,
    };
    let (mut failed, mut broken) = (false, false);
    for suite_name in &suites {
        let workloads = bench::workloads::suite(suite_name).expect("suite names checked above");
        eprintln!(
            "suite {suite_name}: {} benchmarks × {repeat} runs (+{warmup} warmup)",
            workloads.len()
        );
        let mut doc = BenchDoc::new(suite_name, repeat, warmup);
        for mut w in workloads {
            let samples = jns_obs::sample_us(cfg, || w.run_once());
            let entry = BenchEntry {
                name: w.name.clone(),
                unit: "us",
                workload: w.workload.clone(),
                backend: w.backend.clone(),
                samples,
            };
            let s = entry.summary();
            eprintln!(
                "  {:<44} median {:>8} µs (min {}, mad {})",
                entry.name, s.median, s.min, s.mad
            );
            doc.benchmarks.push(entry);
        }
        let path = format!("{out_dir}/BENCH_{suite_name}.json");
        if write_text(&path, &(doc.to_json() + "\n")).is_err() {
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
        for &gate in bench::workloads::gates(suite_name) {
            match bench::workloads::check_gate(gate, &doc) {
                Ok((held, line)) => {
                    eprintln!("{line}");
                    failed |= !held;
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    broken = true;
                }
            }
        }
    }
    if broken {
        ExitCode::FAILURE
    } else if failed {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}

/// `jns trace-report`: a human-readable digest of a `--trace` stream.
fn cmd_trace_report(args: Vec<String>) -> ExitCode {
    let [_, path] = args.as_slice() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (events, dropped) = match jns_obs::parse_jsonl(&text) {
        Ok(read) => read,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut phases: Vec<(&str, u64)> = Vec::new();
    let mut queue_wait = Histogram::new();
    let mut exec = Histogram::new();
    let mut failed = 0u64;
    // Runs and pause time per collection kind, in `GC_KINDS` order.
    let mut gc_kinds = GC_KINDS.map(|kind| (kind, 0u64, 0u64));
    let (mut reclaimed, mut peak_live) = (0u64, 0u64);
    let mut ic_misses: std::collections::BTreeMap<(&str, u32), u64> =
        std::collections::BTreeMap::new();
    for e in &events {
        match &e.event {
            TraceEvent::Phase { name, micros } => phases.push((name, *micros)),
            TraceEvent::RequestStart { .. } => {}
            TraceEvent::RequestEnd {
                ok,
                queue_us,
                exec_us,
                ..
            } => {
                failed += u64::from(!ok);
                queue_wait.record(*queue_us);
                exec.record(*exec_us);
            }
            TraceEvent::Gc {
                kind,
                reclaimed: r,
                peak_live: p,
                pause_us,
                ..
            } => {
                reclaimed += r;
                peak_live = peak_live.max(*p);
                for (k, runs, paused) in &mut gc_kinds {
                    if k == kind {
                        *runs += 1;
                        *paused += pause_us;
                    }
                }
            }
            TraceEvent::IcMiss { kind, site, .. } => {
                *ic_misses.entry((kind.as_str(), *site)).or_insert(0) += 1;
            }
        }
    }

    println!("trace: {} events", events.len());
    if !phases.is_empty() {
        println!("phases:");
        for (name, us) in &phases {
            println!("  {name:<17} {us:>8} µs");
        }
    }
    if exec.count() > 0 {
        println!("requests: {} ({failed} failed)", exec.count());
        println!("  queue wait {}", queue_wait.render_line("µs"));
        println!("  execution  {}", exec.render_line("µs"));
    }
    let gc_runs: u64 = gc_kinds.iter().map(|(_, runs, _)| runs).sum();
    if gc_runs > 0 {
        println!("gc: {gc_runs} runs, {reclaimed} objects reclaimed, peak live {peak_live}");
        for (kind, runs, paused) in gc_kinds {
            println!("  {kind} {runs:>4} runs, {paused:>8} µs paused");
        }
    }
    if !ic_misses.is_empty() {
        let total: u64 = ic_misses.values().sum();
        // Hottest miss sites first; site index breaks ties so the order
        // is deterministic.
        let mut sites: Vec<(&(&str, u32), &u64)> = ic_misses.iter().collect();
        sites.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("inline-cache misses: {total} across {} sites", sites.len());
        for ((kind, site), n) in sites.into_iter().take(8) {
            println!("  {n:>8}  {kind} site {site}");
        }
    }
    if dropped > 0 {
        println!("{}", jns_obs::dropped_warning(dropped));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => cmd_run(args),
        Some("check") => cmd_check(args),
        Some("serve") => cmd_serve(args),
        Some("bench") => cmd_bench(args),
        Some("trace-report") => cmd_trace_report(args),
        _ => usage(),
    }
}
