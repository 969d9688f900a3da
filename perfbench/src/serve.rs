//! `translate_serve`: the §7.3 λ-compiler as served requests on a
//! `jns_serve::Pool`, driven by a closed loop that keeps a fixed number
//! of requests outstanding. One op is one request, timed from submit to
//! response.

use crate::layers::{self, Measured, Step, EXEC, LOWER, OP, POOL_SPAWN, QUEUE, SETUP, SHARED};
use crate::programs::{self, Program, Rng};
use crate::spans::{Tracer, SETUP_OP};
use crate::{ms, nproc, Args, Outcome};
use jns_core::{Backend, Compiler};
use jns_serve::{Pool, PoolTelemetry, Request, Response, ServeConfig};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Live-object limit per worker heap. It must sit below what one request
/// allocates: above it the auto-sizer settles at 1.5x the peak and no
/// collection ever runs.
pub const HEAP_LIMIT: usize = 512;
/// Nursery capacity of the worker heaps.
pub const NURSERY: usize = 32;
/// Requests kept outstanding per worker: one running, one queued, so a
/// worker never waits for the generator.
const OUTSTANDING_PER_WORKER: usize = 2;
/// Untimed requests per worker at the end of set-up.
const WARMUP_PER_WORKER: usize = 100;
/// How long the generator sleeps between polls for a response: short
/// next to a request, and it leaves the CPU to the workers.
const POLL: Duration = Duration::from_micros(50);
/// A request with no response after this long counts as lost.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Workers: one CPU is left to the generator, so no more threads run
/// than there are CPUs.
pub fn workers() -> usize {
    nproc().saturating_sub(1).max(1)
}

fn config(workers: usize, trace: bool) -> ServeConfig {
    ServeConfig {
        workers,
        queue_cap: OUTSTANDING_PER_WORKER * workers,
        fuel: None,
        max_depth: Some(jns_eval::DEFAULT_MAX_DEPTH),
        heap_limit: Some(HEAP_LIMIT),
        nursery: Some(NURSERY),
        trace,
        trace_cap: layers::TRACE_CAP,
        sample_stride: None,
    }
}

/// Checks responses against the references computed in set-up.
struct Checker {
    reference: Vec<String>,
}

impl Checker {
    fn ok(&self, r: &Response, guard: &mut crate::Guard) -> bool {
        if let Some(e) = &r.error {
            eprintln!("perfbench: request {} failed: {e}", r.id);
            return false;
        }
        let same = guard.check("translate_request", &r.stats);
        r.output == self.reference && same
    }
}

/// One closed-loop stretch on `pool`: keeps `outstanding` requests in
/// flight until `budget` has passed and `min` requests were submitted,
/// then drains. Calls `on_response` with each response and its submit and
/// receive instants; returns the responses handled and the requests that
/// never answered.
fn closed_loop(
    pool: &mut Pool,
    next_id: &mut u64,
    outstanding: usize,
    budget: Duration,
    min: usize,
    mut on_response: impl FnMut(Response, Instant, Instant),
) -> (usize, usize) {
    let start = Instant::now();
    let mut inflight: HashMap<u64, Instant> = HashMap::new();
    let (mut done, mut submitted) = (0, 0);
    let mut last_progress = Instant::now();
    loop {
        while inflight.len() < outstanding && (submitted < min || start.elapsed() < budget) {
            submitted += 1;
            let id = *next_id;
            *next_id += 1;
            inflight.insert(id, Instant::now());
            pool.submit(Request { id });
        }
        if let Some(r) = pool.try_collect() {
            let recv = Instant::now();
            last_progress = recv;
            let submitted = inflight
                .remove(&r.id)
                .expect("response to a submitted request");
            on_response(r, submitted, recv);
            done += 1;
        } else if inflight.is_empty() {
            return (done, 0);
        } else if last_progress.elapsed() > RESPONSE_TIMEOUT {
            return (done, inflight.len());
        } else {
            std::thread::sleep(POLL);
        }
    }
}

struct Setup {
    checker: Checker,
    pool: Pool,
    traced_pool: Option<Pool>,
}

fn setup(
    prog: &Program,
    workers: usize,
    mut tracer: Option<&mut Tracer>,
    guard: &mut crate::Guard,
    next_id: &mut u64,
) -> Result<Setup, String> {
    let root = tracer.as_deref_mut().map(|t| t.open(SETUP, SETUP_OP, None));
    let t0 = Instant::now();
    let compiled = Compiler::default()
        .with_backend(Backend::Vm)
        .with_fusion(true)
        .with_quickening(true)
        .with_max_depth(jns_eval::DEFAULT_MAX_DEPTH)
        .with_heap_limit(HEAP_LIMIT)
        .with_nursery(NURSERY)
        .compile(&prog.src)
        .map_err(|e| format!("translate request does not compile: {e}"))?;
    let t1 = Instant::now();
    compiled.bytecode();
    let t2 = Instant::now();
    let vm = compiled
        .run_on(Backend::Vm)
        .map_err(|e| format!("reference VM run: {e}"))?;
    let tw = compiled
        .run_on(Backend::TreeWalk)
        .map_err(|e| format!("reference tree-walk run: {e}"))?;
    if vm.output != tw.output {
        return Err("the VM and the tree-walker disagree on the request".into());
    }
    let st = &vm.stats;
    if st.minor_runs == 0 || st.major_runs == 0 || st.barrier_hits == 0 {
        return Err(format!(
            "the request no longer exercises the collector: {} minor, {} major, {} barrier hits",
            st.minor_runs, st.major_runs, st.barrier_hits
        ));
    }
    // Every served request must repeat the single-threaded VM's counters.
    guard.check("translate_request", st);
    let checker = Checker {
        reference: vm.output,
    };
    let t3 = Instant::now();
    let shared = compiled.shared();
    let t4 = Instant::now();
    let mut pool = Pool::new(&shared, &config(workers, false));
    let t5 = Instant::now();
    let mut traced_pool = tracer
        .is_some()
        .then(|| Pool::new(&shared, &config(workers, true)));
    if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
        layers::record_compile(t, root, t0, t1, compiled.timings());
        for (name, a, b) in [(LOWER, t1, t2), (SHARED, t3, t4), (POOL_SPAWN, t4, t5)] {
            let (s, e) = (t.at(a), t.at(b));
            t.record(name, SETUP_OP, Some(root), s, e);
        }
    }
    let outstanding = OUTSTANDING_PER_WORKER * workers;
    for p in std::iter::once(&mut pool).chain(traced_pool.as_mut()) {
        let mut bad = 0;
        let mut left = WARMUP_PER_WORKER * workers;
        while left > 0 {
            let (n, lost) =
                closed_loop(p, next_id, outstanding, Duration::ZERO, left, |r, _, _| {
                    if !checker.ok(&r, guard) {
                        bad += 1;
                    }
                });
            if lost > 0 {
                return Err(format!("{lost} warm-up requests never answered"));
            }
            left = left.saturating_sub(n);
        }
        if bad > 0 {
            return Err(format!("{bad} warm-up requests answered wrongly"));
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok(Setup {
        checker,
        pool,
        traced_pool,
    })
}

/// Shuts both pools down, joining every worker; returns the traced
/// pool's telemetry.
fn shut(s: Setup) -> Option<PoolTelemetry> {
    s.pool.shutdown();
    s.traced_pool.map(|p| p.shutdown_report().1)
}

pub fn run(args: &Args) -> Outcome {
    let prog = programs::translate_request(&mut Rng::new(args.seed));
    let workers = workers();
    let mut out = Outcome {
        workers,
        ..Outcome::default()
    };
    let mut tracer = args.trace.then(Tracer::new);
    let mut next_id = 0u64;
    let set_up = layers::time_setup(&mut out.setup_s, || {
        setup(
            &prog,
            workers,
            tracer.as_mut(),
            &mut out.guard,
            &mut next_id,
        )
    });
    let mut s = match set_up {
        Ok(s) => s,
        Err(e) => {
            out.violations.push(e);
            return out;
        }
    };
    let outstanding = OUTSTANDING_PER_WORKER * workers;
    let mut m = Measured {
        parsed_bytes: if args.trace { prog.src.len() as u64 } else { 0 },
        ..Measured::default()
    };
    // Traced requests: id -> exec span.
    let mut traced_ops: HashMap<u64, usize> = HashMap::new();
    let mut lost_total = 0;

    let step = |step: Step| -> Result<Vec<f64>, String> {
        let Step::Block { traced, budget } = step else {
            shut(setup(&prog, workers, None, &mut out.guard, &mut next_id)?);
            return Ok(Vec::new());
        };
        let pool = if traced {
            s.traced_pool
                .as_mut()
                .expect("traced runs have a traced pool")
        } else {
            &mut s.pool
        };
        let checker = &s.checker;
        let mut lats = Vec::new();
        let (_, lost) = closed_loop(
            pool,
            &mut next_id,
            outstanding,
            budget,
            1,
            |r, sub, recv| {
                out.attempted += 1;
                if !checker.ok(&r, &mut out.guard) {
                    out.failed += 1;
                    return;
                }
                lats.push(ms(recv - sub));
                if let (true, Some(t)) = (traced, tracer.as_mut()) {
                    // The request id is the op id of its spans.
                    let (s0, s1) = (t.at(sub), t.at(recv));
                    let root = t.record(OP, r.id, None, s0, s1);
                    let q_end = (s0 + r.queue_us * 1000).min(s1);
                    t.record(QUEUE, r.id, Some(root), s0, q_end);
                    let e_end = (q_end + r.exec_us * 1000).min(s1);
                    let exec = t.record(EXEC, r.id, Some(root), q_end, e_end);
                    traced_ops.insert(r.id, exec);
                    m.vm_runs.push(r.stats);
                    m.serve.queue_us.push(r.queue_us as f64);
                    m.serve.exec_us.push(r.exec_us as f64);
                    m.serve.reset_reclaimed.push(r.heap_reclaimed as f64);
                }
            },
        );
        out.attempted += lost as u64;
        out.failed += lost as u64;
        lost_total += lost;
        Ok(lats)
    };
    let timed = layers::run_blocks(args, &mut out.setup_s, step);
    if lost_total > 0 {
        out.violations
            .push(format!("{lost_total} requests never answered"));
    }
    let traced_tele = shut(s);
    if let (Some(t), Some(tele)) = (tracer.as_mut(), traced_tele) {
        m.trace_dropped = tele.trace_dropped;
        m.serve.queue_high_water = tele.queue_high_water;
        m.serve.submit_blocked = tele.submit_blocked;
        m.serve.worker_heap_limit = tele
            .worker_heap_limits
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(0);
        attach_request_gcs(t, &tele, &traced_ops);
    }
    layers::finish(timed, tracer, m, &mut out, args);
    out
}

/// Hangs each worker's GC events under the exec span of the request they
/// ran in, placed relative to that request's start event (the worker's
/// clock and the tracer's differ only by a constant).
fn attach_request_gcs(t: &mut Tracer, tele: &PoolTelemetry, traced: &HashMap<u64, usize>) {
    use jns_obs::{TimedEvent, TraceEvent};
    // The request each worker is running.
    let mut current: HashMap<Option<u32>, u64> = HashMap::new();
    let mut per_request: HashMap<u64, (u64, Vec<&TimedEvent>)> = HashMap::new();
    for ev in &tele.trace_events {
        match ev.event {
            TraceEvent::RequestStart { id } => {
                current.insert(ev.worker, id);
                per_request.insert(id, (ev.t_us, Vec::new()));
            }
            TraceEvent::RequestEnd { .. } => {
                current.remove(&ev.worker);
            }
            TraceEvent::Gc { .. } => {
                if let Some(id) = current.get(&ev.worker) {
                    if let Some((_, evs)) = per_request.get_mut(id) {
                        evs.push(ev);
                    }
                }
            }
            _ => {}
        }
    }
    for (&id, &exec) in traced {
        if let Some((start_us, evs)) = per_request.get(&id) {
            let base = t.spans[exec].start_ns as i128;
            let start_us = *start_us as i128;
            layers::attach_gc(t, id, exec, evs.iter().copied(), |us| {
                base + (us as i128 - start_us) * 1000
            });
        }
    }
}
