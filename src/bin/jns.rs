//! `jns` — command-line interpreter and serving driver for the J&s
//! language.
//!
//! Usage:
//!   jns run [--vm] [--stats] [--no-fuse] [--max-depth N]
//!           [--heap-limit N] [--nursery N] [--trace PATH]
//!           [--profile-json PATH] [--profile-folded PATH]
//!           [--sample-stride N] <file.jns>
//!       parse, type-check, and run a program (tree-walking interpreter
//!       by default; `--vm` selects the bytecode VM; `--stats` prints
//!       execution statistics, inline-cache hit rates, the dispatch
//!       engine's fusion count, and the VM's per-chunk instruction
//!       profile; `--no-fuse` disables the dispatch engine's
//!       superinstruction fusion (an ablation knob); `--max-depth`
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
//!       instructions (default 101))
//!   jns check [--stats] <file.jns>
//!       type-check only; `--stats` prints the parse and check times,
//!       the check split into resolve, sharing, bodies and constraints
//!       (`jns run --stats` prints the same line first)
//!   jns serve [--workers N] [--requests N] [--queue N] [RUN FLAGS] <file.jns>
//!       compile once, then replay the program's entrypoint N times
//!       across a pool of worker VMs and report throughput. RUN FLAGS
//!       are every `jns run` flag but `--vm`, parsed by the same code
//!       into the same `jns_core::RunConfig`: the heap resets per
//!       request, and with `--heap-limit` each worker also collects
//!       *within* a request and auto-sizes its effective limit from the
//!       peak live heap it observes; `--stats` adds latency
//!       percentiles, per-worker effective heap limits, and
//!       queue back-pressure gauges, `--trace` merges every worker's
//!       event buffer into one JSONL stream, `--profile-json` exports
//!       aggregate counters plus queue-wait/exec histograms
//!   jns bench [--suite NAME]… [--repeat N] [--warmup N] [--out-dir DIR]
//!       the performance-trajectory driver: runs the benchmark suites
//!       (`vm`, `dispatch`, `gc`, `serve`, `paper` — all five by
//!       default) with warmup passes and repeated measured runs, and
//!       writes one `jns-bench/2` document per suite
//!       (`BENCH_<suite>.json`)
//!   jns bench --compare OLD.json NEW.json [--frac F] [--gate FAST:SLOW]...
//!       compares two `jns-bench/2` documents with the noise-tolerant
//!       comparator (relative band `--frac`, default 0.25, widened by
//!       the observed MAD); exit 0 = within tolerance, 2 = regression,
//!       3 = a `--gate`d FAST benchmark's median is not below SLOW's in
//!       NEW (hard CI failure), 1 = malformed document, unknown gate
//!       name or I/O error
//!   jns trace-report <file.jsonl>
//!       analyzes a `--trace` JSONL stream: phase timings, request
//!       latency table, GC pauses, the top inline-cache-miss sites, and
//!       a warning when events were dropped
//!   jns --help

use jns_core::{Backend, Compiler, RunConfig, RunOptions, RunOutput};
use jns_obs::{
    BenchDoc, BenchEntry, Histogram, Json, RunProfile, SampleConfig, TimedEvent, Tolerance,
    TraceBuffer, TraceEvent,
};
use jns_serve::{serve_batch, ServeConfig};
use std::process::ExitCode;

/// Default sampling stride when `--profile-folded` is given without
/// `--sample-stride`: prime, so the sampler never locks onto loop
/// harmonics of small power-of-two bodies.
const DEFAULT_SAMPLE_STRIDE: u64 = 101;

fn usage() -> ExitCode {
    eprintln!(
        "usage: jns run [--vm] [--stats] [--no-fuse] [--max-depth N] [--heap-limit N] [--nursery N] [--trace PATH] [--profile-json PATH] [--profile-folded PATH] [--sample-stride N] <file.jns>\n\
         \x20      jns check [--stats] <file.jns>\n\
         \x20      jns serve [--workers N] [--requests N] [--queue N] [--no-fuse] [--max-depth N] [--heap-limit N] [--nursery N] [--stats] [--trace PATH] [--profile-json PATH] [--profile-folded PATH] [--sample-stride N] <file.jns>\n\
         \x20      jns bench [--suite NAME]... [--repeat N] [--warmup N] [--out-dir DIR]\n\
         \x20      jns bench --compare OLD.json NEW.json [--frac F] [--gate FAST:SLOW]...\n\
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
                fuel: None,
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

fn print_front_end(compiled: &jns_core::Compiled) {
    let t = compiled.timings();
    let c = t.check_phases;
    eprintln!(
        "front end       parse {} µs, check {} µs (resolve {}, sharing {}, bodies {}, constraints {})",
        t.parse_us, t.check_us, c.resolve_us, c.sharing_us, c.bodies_us, c.constraints_us
    );
}

fn print_stats(out: &RunOutput, total_chunks: usize) {
    let s = &out.stats;
    eprintln!("steps           {}", s.steps);
    eprintln!("allocs          {}", s.allocs);
    eprintln!("calls           {}", s.calls);
    eprintln!("views explicit  {}", s.views_explicit);
    eprintln!("views implicit  {}", s.views_implicit);
    eprintln!("mask allocs     {}", s.mask_allocs);
    eprintln!("folded ops      {}", s.folded);
    eprintln!("peak live heap  {}", s.peak_live);
    if s.gc_runs > 0 {
        if s.minor_runs > 0 {
            eprintln!(
                "gc              {} runs ({} minor / {} major), {} objects reclaimed",
                s.gc_runs, s.minor_runs, s.major_runs, s.reclaimed
            );
            eprintln!(
                "gc nursery      {} promoted, {} write-barrier hits",
                s.promoted, s.barrier_hits
            );
        } else {
            eprintln!(
                "gc              {} runs, {} objects reclaimed",
                s.gc_runs, s.reclaimed
            );
        }
    }
    let probes = s.ic_hits + s.ic_misses;
    if probes > 0 {
        eprintln!(
            "inline caches   {} hits / {} misses ({:.1}% hit rate)",
            s.ic_hits,
            s.ic_misses,
            100.0 * s.ic_hits as f64 / probes as f64
        );
    }
    if s.fused > 0 {
        eprintln!("dispatch engine {} fused sites", s.fused);
    }
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

fn compile_file(
    path: &str,
    backend: Backend,
    flags: &RunFlags,
) -> Result<jns_core::Compiled, ExitCode> {
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    };
    let compiler = Compiler::new()
        .with_backend(backend)
        .with_fusion(flags.fuse)
        .with_config(flags.run);
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
    let (check_only, path) = match args.as_slice() {
        [cmd, path] if cmd == "run" || cmd == "check" => (cmd == "check", path.clone()),
        _ => return usage(),
    };
    let compiled = match compile_file(&path, backend, &flags) {
        Ok(c) => c,
        Err(code) => return code,
    };
    if check_only {
        println!("ok");
        if flags.stats {
            print_front_end(&compiled);
        }
        return ExitCode::SUCCESS;
    }
    // With --trace, seed the buffer with the front-end phase events
    // before the run appends GC and inline-cache-miss events.
    let trace_buf = flags.trace.as_ref().map(|_| {
        let mut buf = TraceBuffer::new(jns_obs::DEFAULT_TRACE_CAP);
        let t = compiled.timings();
        let c = t.check_phases;
        for (name, micros) in [
            ("parse", t.parse_us),
            ("check", t.check_us),
            ("check.resolve", c.resolve_us),
            ("check.sharing", c.sharing_us),
            ("check.bodies", c.bodies_us),
            ("check.constraints", c.constraints_us),
        ] {
            buf.push(TraceEvent::Phase { name, micros });
        }
        if backend == Backend::Vm {
            buf.push(TraceEvent::Phase {
                name: "lower",
                micros: compiled.bytecode().lower_micros,
            });
        }
        buf
    });
    let opts = RunOptions {
        trace: trace_buf,
        sample_stride: flags.sampler(),
    };
    match compiled.run_with(backend, opts) {
        Ok(out) => {
            for line in &out.output {
                println!("{line}");
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
            let profile = RunProfile {
                backend: "vm".into(),
                program: path,
                counters: out.stats.counters(),
                chunks: out.chunk_profile,
                ic_sites: out.ic_profile,
                histograms: Vec::new(),
                samples: out.samples,
            };
            match write_artifacts(&flags, events, dropped, profile, "the program") {
                Ok(()) => ExitCode::SUCCESS,
                Err(code) => code,
            }
        }
        Err(e) => {
            eprintln!("runtime error: {e}");
            ExitCode::FAILURE
        }
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
        let a = &report.aggregate;
        eprintln!(
            "aggregate: steps {} allocs {} calls {} views {}+{} mask allocs {}",
            a.steps, a.allocs, a.calls, a.views_explicit, a.views_implicit, a.mask_allocs
        );
        // Intra-request GC (the per-request region resets are the "heap
        // objects reclaimed" figure in the summary line above).
        if a.minor_runs > 0 {
            eprintln!(
                "aggregate: gc {} runs ({} minor / {} major), {} objects reclaimed in-request, peak live heap {}, {} promoted, {} barrier hits",
                a.gc_runs, a.minor_runs, a.major_runs, a.reclaimed, a.peak_live, a.promoted, a.barrier_hits
            );
        } else {
            eprintln!(
                "aggregate: gc {} runs, {} objects reclaimed in-request, peak live heap {}",
                a.gc_runs, a.reclaimed, a.peak_live
            );
        }
        let probes = a.ic_hits + a.ic_misses;
        if probes > 0 {
            eprintln!(
                "aggregate: inline caches {} hits / {} misses ({:.1}% hit rate)",
                a.ic_hits,
                a.ic_misses,
                100.0 * a.ic_hits as f64 / probes as f64
            );
        }
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
        // The auto-sizer's chosen per-worker effective heap limits (see
        // ServeConfig::heap_limit) — observable, not silent.
        if t.worker_heap_limits.iter().any(Option::is_some) {
            let limits: Vec<String> = t
                .worker_heap_limits
                .iter()
                .map(|l| l.map_or("-".to_string(), |n| n.to_string()))
                .collect();
            eprintln!(
                "per-worker effective heap limit (auto-sized): [{}]",
                limits.join(", ")
            );
        }
        if t.trace_dropped > 0 {
            eprintln!(
                "warning: {} trace events dropped (per-worker ring buffers filled; \
                 raise the trace capacity or shorten the run)",
                t.trace_dropped
            );
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
    let compiled = match compile_file(path, Backend::Vm, &flags) {
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
    let profile = RunProfile {
        backend: "serve".into(),
        program: path.clone(),
        counters: report.aggregate.counters(),
        chunks: Vec::new(),
        ic_sites: Vec::new(),
        histograms: vec![
            ("queue_wait_us", t.queue_wait.clone()),
            ("exec_us", t.exec.clone()),
        ],
        samples: t.samples.clone(),
    };
    if let Err(code) = write_artifacts(
        &flags,
        &t.trace_events,
        t.trace_dropped,
        profile,
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

/// Reads and parses one JSON document, mapping failures to exit code 1
/// (a broken artifact, distinct from a regression's exit code 2).
fn read_json(path: &str) -> Result<Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("error: cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    jns_obs::json::parse(text.trim()).map_err(|e| {
        eprintln!("error: {path}: {e}");
        ExitCode::FAILURE
    })
}

/// `jns bench --compare OLD NEW [--frac F] [--gate FAST:SLOW]...`: the
/// regression gate. Exit 0 = within tolerance, 1 = unreadable/malformed
/// document or a gate naming a benchmark either document lacks, 2 = at
/// least one benchmark regressed beyond tolerance, 3 = a gate failed:
/// FAST's median is not below SLOW's in NEW (a hard CI failure even
/// where plain regressions only warn). A gate compares two arms of one
/// run, so it holds on any host; an absolute regression depends on the
/// host that pinned OLD.
fn cmd_bench_compare(mut args: Vec<String>) -> ExitCode {
    let frac = match take_path(&mut args, "--frac") {
        Ok(Some(v)) => match v.parse::<f64>() {
            Ok(f) if f.is_finite() && f >= 0.0 => f,
            _ => {
                eprintln!("error: --frac: bad fraction `{v}`");
                return ExitCode::FAILURE;
            }
        },
        Ok(None) => Tolerance::default().frac,
        Err(code) => return code,
    };
    let mut gates: Vec<(String, String)> = Vec::new();
    loop {
        match take_path(&mut args, "--gate") {
            Ok(Some(g)) => match g.split_once(':') {
                Some((fast, slow)) => gates.push((fast.to_string(), slow.to_string())),
                None => {
                    eprintln!("error: --gate {g}: expected FAST:SLOW");
                    return ExitCode::FAILURE;
                }
            },
            Ok(None) => break,
            Err(code) => return code,
        }
    }
    let [_, old_path, new_path] = args.as_slice() else {
        return usage();
    };
    let (old, new) = match (read_json(old_path), read_json(new_path)) {
        (Ok(o), Ok(n)) => (o, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let tol = Tolerance::with_frac(frac);
    let report = match jns_obs::compare_docs(&old, &new, &tol) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for l in &report.lines {
        eprintln!(
            "{:<10} {:<44} {:>8} -> {:>8} µs ({:+.1}%, mad {}/{})",
            l.verdict.as_str(),
            l.name,
            l.old.median,
            l.new.median,
            100.0 * l.delta_frac,
            l.old.mad,
            l.new.mad,
        );
    }
    for name in &report.missing_in_new {
        eprintln!("missing    {name} (in baseline only)");
    }
    for name in &report.added_in_new {
        eprintln!("added      {name} (not in baseline)");
    }
    let new_median = |name: &str| {
        report
            .lines
            .iter()
            .find(|l| l.name == name)
            .map(|l| l.new.median)
    };
    let mut gate_failed = false;
    for (fast, slow) in &gates {
        // A gate name must resolve: a silently missing gated benchmark
        // would turn the hard gate into a no-op.
        let (Some(f), Some(s)) = (new_median(fast), new_median(slow)) else {
            eprintln!("error: --gate {fast}:{slow}: no such benchmark in both documents");
            return ExitCode::FAILURE;
        };
        let verdict = if f < s { "gate ok" } else { "gate FAIL" };
        eprintln!(
            "{verdict:<10} {fast} {f} µs vs {slow} {s} µs ({:.2}×)",
            f as f64 / s.max(1) as f64
        );
        gate_failed |= f >= s;
    }
    if gate_failed {
        return ExitCode::from(3);
    }
    let n = report.regressions();
    if n > 0 {
        eprintln!(
            "{n} of {} benchmark(s) regressed beyond tolerance (frac {frac}, \
             {}×MAD noise band, {}µs floor)",
            report.lines.len(),
            tol.mad_sigmas,
            tol.abs_floor_us,
        );
        return ExitCode::from(2);
    }
    eprintln!(
        "no regressions across {} benchmark(s) (frac {frac})",
        report.lines.len()
    );
    ExitCode::SUCCESS
}

/// `jns bench`: measures the requested suites with warmup + repeated
/// runs and writes one pinned `BENCH_<suite>.json` per suite.
fn cmd_bench(mut args: Vec<String>) -> ExitCode {
    if take_flag(&mut args, "--compare") {
        return cmd_bench_compare(args);
    }
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
        Ok(d) => d.unwrap_or_else(|| ".".to_string()),
        Err(code) => return code,
    };
    if args.len() != 1 {
        return usage();
    }
    // Fail before measuring anything, not after the last suite.
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {out_dir}: {e}");
        return ExitCode::FAILURE;
    }
    if suites.is_empty() {
        suites = bench::workloads::SUITES
            .iter()
            .map(|s| s.to_string())
            .collect();
    }
    let cfg = SampleConfig {
        warmup,
        runs: repeat,
    };
    for suite_name in &suites {
        let Some(workloads) = bench::workloads::suite(suite_name) else {
            eprintln!(
                "error: unknown suite `{suite_name}` (valid: {})",
                bench::workloads::SUITES.join(", ")
            );
            return ExitCode::FAILURE;
        };
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
    }
    ExitCode::SUCCESS
}

/// Accumulated GC figures for the trace report, split by collection
/// kind. Events without a `kind` field (traces from before generational
/// collection) count as major — every collection was a full one then.
#[derive(Default)]
struct GcSummary {
    runs: u64,
    minor_runs: u64,
    major_runs: u64,
    minor_pause_us: u64,
    major_pause_us: u64,
    reclaimed: u64,
    peak_live: u64,
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
    let mut lines = text.lines();
    let header = match lines.next().map(jns_obs::json::parse) {
        Some(Ok(h)) => h,
        Some(Err(e)) => {
            eprintln!("error: {path}: bad header: {e}");
            return ExitCode::FAILURE;
        }
        None => {
            eprintln!("error: {path}: empty trace file");
            return ExitCode::FAILURE;
        }
    };
    if header.get("ev").and_then(Json::as_str) != Some("trace_start")
        || header.get("schema").and_then(Json::as_str) != Some(jns_obs::TRACE_SCHEMA)
    {
        eprintln!(
            "error: {path}: first line must be a {} trace_start header",
            jns_obs::TRACE_SCHEMA
        );
        return ExitCode::FAILURE;
    }
    let dropped = header.get("dropped").and_then(Json::as_u64).unwrap_or(0);

    let mut phases: Vec<(String, u64)> = Vec::new();
    let mut queue_wait = Histogram::new();
    let mut exec = Histogram::new();
    let mut requests = 0u64;
    let mut failed = 0u64;
    let mut gc = GcSummary::default();
    let mut ic_misses: std::collections::BTreeMap<(String, u64), u64> =
        std::collections::BTreeMap::new();
    let mut events = 0u64;
    for (i, line) in lines.enumerate() {
        let ev = match jns_obs::json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {path}: line {}: {e}", i + 2);
                return ExitCode::FAILURE;
            }
        };
        events += 1;
        let num = |key: &str| ev.get(key).and_then(Json::as_u64).unwrap_or(0);
        match ev.get("ev").and_then(Json::as_str) {
            Some("phase") => {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                phases.push((name, num("micros")));
            }
            Some("request_start") => {}
            Some("request_end") => {
                requests += 1;
                if ev.get("ok").and_then(Json::as_bool) == Some(false) {
                    failed += 1;
                }
                queue_wait.record(num("queue_us"));
                exec.record(num("exec_us"));
            }
            Some("gc") => {
                gc.runs += 1;
                gc.reclaimed += num("reclaimed");
                gc.peak_live = gc.peak_live.max(num("peak_live"));
                if ev.get("kind").and_then(Json::as_str) == Some("minor") {
                    gc.minor_runs += 1;
                    gc.minor_pause_us += num("pause_us");
                } else {
                    gc.major_runs += 1;
                    gc.major_pause_us += num("pause_us");
                }
            }
            Some("ic_miss") => {
                let kind = ev
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                *ic_misses.entry((kind, num("site"))).or_insert(0) += 1;
            }
            _ => {
                eprintln!("error: {path}: line {}: missing or unknown ev tag", i + 2);
                return ExitCode::FAILURE;
            }
        }
    }

    println!("trace: {events} events");
    if !phases.is_empty() {
        println!("phases:");
        for (name, us) in &phases {
            println!("  {name:<17} {us:>8} µs");
        }
    }
    if requests > 0 {
        println!("requests: {requests} ({} failed)", failed);
        println!("  queue wait {}", queue_wait.render_line("µs"));
        println!("  execution  {}", exec.render_line("µs"));
    }
    if gc.runs > 0 {
        println!(
            "gc: {} runs, {} objects reclaimed, peak live {}",
            gc.runs, gc.reclaimed, gc.peak_live
        );
        println!(
            "  minor {:>4} runs, {:>8} µs paused",
            gc.minor_runs, gc.minor_pause_us
        );
        println!(
            "  major {:>4} runs, {:>8} µs paused",
            gc.major_runs, gc.major_pause_us
        );
    }
    if !ic_misses.is_empty() {
        let total: u64 = ic_misses.values().sum();
        // Hottest miss sites first; site index breaks ties so the order
        // is deterministic.
        let mut sites: Vec<(&(String, u64), &u64)> = ic_misses.iter().collect();
        sites.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        println!("inline-cache misses: {total} across {} sites", sites.len());
        for ((kind, site), n) in sites.into_iter().take(8) {
            println!("  {n:>8}  {kind} site {site}");
        }
    }
    if dropped > 0 {
        println!(
            "warning: {dropped} events were dropped at capture time — the \
             figures above undercount (raise the trace capacity)"
        );
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") | Some("check") => cmd_run(args),
        Some("serve") => cmd_serve(args),
        Some("bench") => cmd_bench(args),
        Some("trace-report") => cmd_trace_report(args),
        _ => usage(),
    }
}
