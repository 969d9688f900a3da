//! Span names, and the per-layer metrics derived from a traced run.

use crate::spans::{Breakdown, Tracer};
use crate::{percentile, MIN_OPS};
use jns_eval::Stats;
use jns_obs::{TimedEvent, TraceEvent};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

pub const OP: &str = "op";
pub const SETUP: &str = "setup";
pub const COMPILE: &str = "jns-core.compile";
pub const SHARED: &str = "jns-core.shared";
pub const PARSE: &str = "jns-syntax.parse";
pub const CHECK: &str = "jns-types.check";
pub const LOWER: &str = "jns-vm.lower";
pub const EXEC: &str = "jns-vm.exec";
pub const TREEWALK: &str = "jns-eval.treewalk";
pub const GC_MINOR: &str = "jns-eval.gc_minor";
pub const GC_MAJOR: &str = "jns-eval.gc_major";
pub const QUEUE: &str = "jns-serve.queue";
pub const POOL_SPAWN: &str = "jns-serve.pool_spawn";

/// Trace-buffer capacity handed to the program: far above what one run
/// records, so a non-zero `jns-obs.trace_dropped` means a defect.
pub const TRACE_CAP: usize = 1 << 22;

/// Blocks an untraced run is split into; its throughput and latency
/// metrics come from its best block, so interference from outside the
/// process that slows some blocks does not move the run.
pub const BLOCKS: u32 = 15;

/// One untraced block: the latencies of its successful ops, and its wall
/// time.
#[derive(Debug, Default)]
pub struct Block {
    pub latencies_ms: Vec<f64>,
    pub wall_s: f64,
}

/// Latencies of a run's timed phase.
#[derive(Debug, Default)]
pub struct Timed {
    pub blocks: Vec<Block>,
    pub traced_ms: Vec<f64>,
}

/// One call of a workload's step function.
pub enum Step {
    /// Set up once more, only to time it; the result is thrown away.
    SetUp,
    /// Run ops for about `budget` (at least one) and return the latencies
    /// of those that succeeded.
    Block { traced: bool, budget: Duration },
}

/// Times one set-up into `setup_s`.
pub fn time_setup<T>(
    setup_s: &mut Vec<f64>,
    setup: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let t = Instant::now();
    let s = setup()?;
    setup_s.push(t.elapsed().as_secs_f64());
    Ok(s)
}

/// Runs a workload's timed phase through `step`. An untraced run is
/// [`BLOCKS`] untraced blocks, each topped up to [`MIN_OPS`] ops so that
/// its p95 has ten samples beyond it, with one more set-up between
/// consecutive blocks, so the set-ups behind `setup_s` sample the whole
/// run and not only its first seconds. A traced run alternates untraced
/// and traced blocks, so the tracing overhead is measured on the same
/// warm state.
pub fn run_blocks(
    args: &crate::Args,
    setup_s: &mut Vec<f64>,
    mut step: impl FnMut(Step) -> Result<Vec<f64>, String>,
) -> Result<Timed, String> {
    let n = if args.trace { 2 * BLOCKS } else { BLOCKS };
    let budget = args.duration() / n;
    let mut timed = Timed::default();
    for i in 0..n {
        let traced = i % 2 == 1 && args.trace;
        if i > 0 && !args.trace {
            time_setup(setup_s, || step(Step::SetUp))?;
        }
        let t = Instant::now();
        let mut lat = step(Step::Block { traced, budget })?;
        let mut tries = 0;
        while !args.trace && lat.len() < MIN_OPS && tries < MIN_OPS {
            lat.extend(step(Step::Block {
                traced: false,
                budget: Duration::ZERO,
            })?);
            tries += 1;
        }
        if traced {
            timed.traced_ms.extend(lat);
        } else {
            timed.blocks.push(Block {
                latencies_ms: lat,
                wall_s: t.elapsed().as_secs_f64(),
            });
        }
    }
    Ok(timed)
}

/// Records a set-up compile from outside: the span around
/// `Compiler::compile`, with parse and check laid out inside it from the
/// compile's own `CompileTimings`.
pub fn record_compile(
    t: &mut Tracer,
    parent: usize,
    start: Instant,
    end: Instant,
    timings: jns_core::CompileTimings,
) {
    let (s, e) = (t.at(start), t.at(end));
    let id = t.record(COMPILE, crate::spans::SETUP_OP, Some(parent), s, e);
    let p_end = (s + timings.parse_us * 1000).min(e);
    t.record(PARSE, crate::spans::SETUP_OP, Some(id), s, p_end);
    let c_end = (p_end + timings.check_us * 1000).min(e);
    t.record(CHECK, crate::spans::SETUP_OP, Some(id), p_end, c_end);
}

/// Adds one child span per GC event under `exec`, placed by the event's
/// end time and pause. `to_ns` maps an event time (µs, in the buffer's
/// clock) to tracer ns. Spans are clipped into `exec` and kept in order,
/// so rounding cannot make them overlap.
pub fn attach_gc<'a>(
    t: &mut Tracer,
    op: u64,
    exec: usize,
    events: impl IntoIterator<Item = &'a TimedEvent>,
    to_ns: impl Fn(u64) -> i128,
) {
    let (lo, hi) = (t.spans[exec].start_ns, t.spans[exec].end_ns);
    let mut floor = lo;
    for ev in events {
        if let TraceEvent::Gc { kind, pause_us, .. } = ev.event {
            let end = to_ns(ev.t_us).clamp(lo as i128, hi as i128) as u64;
            let start = (end as i128 - pause_us as i128 * 1000).max(floor as i128) as u64;
            let name = if kind == "minor" { GC_MINOR } else { GC_MAJOR };
            let end = end.max(start);
            t.record(name, op, Some(exec), start, end);
            floor = end;
        }
    }
}

/// Everything a traced run measured, for [`metrics`].
#[derive(Debug, Default)]
pub struct Measured {
    pub breakdown: Breakdown,
    /// Stats of each traced VM execution.
    pub vm_runs: Vec<Stats>,
    /// Stats of each traced tree-walker execution.
    pub tw_runs: Vec<Stats>,
    /// Source bytes parsed inside parse spans.
    pub parsed_bytes: u64,
    pub untraced_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub trace_dropped: u64,
    pub serve: ServeMeasured,
}

/// What the serve layer reports about the traced requests.
#[derive(Debug, Default)]
pub struct ServeMeasured {
    pub queue_us: Vec<f64>,
    pub exec_us: Vec<f64>,
    pub reset_reclaimed: Vec<f64>,
    pub queue_high_water: usize,
    pub submit_blocked: u64,
    pub worker_heap_limit: usize,
}

fn mean_of(runs: &[Stats], f: impl Fn(&Stats) -> u64) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().map(|s| f(s) as f64).sum::<f64>() / runs.len() as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Every per-layer metric, by name. Times are mean self time per call
/// of the layer (per op where the layer runs per op, per set-up where it
/// runs only in set-up); counts are means per execution.
pub fn metrics(m: &Measured) -> BTreeMap<&'static str, f64> {
    let b = &m.breakdown;
    let vm = &m.vm_runs;
    let tw = &m.tw_runs;
    let sum = |runs: &[Stats], f: fn(&Stats) -> u64| runs.iter().map(|s| f(s) as f64).sum::<f64>();
    let gc_minor = b.self_ms(GC_MINOR);
    let gc_major = b.self_ms(GC_MAJOR);
    let exec_total = b.self_ms(EXEC) + gc_minor + gc_major;
    let hits = sum(vm, |s| s.ic_hits);
    let misses = sum(vm, |s| s.ic_misses);
    let per_exec = |total: f64| ratio(total, vm.len() as f64);
    let s = &m.serve;
    let p50 = |v: &[f64]| percentile(v, 50.0);
    let p95 = |v: &[f64]| percentile(v, 95.0);
    let mut out = BTreeMap::new();
    let mut put = |k: &'static str, v: f64| {
        out.insert(k, v);
    };
    put("jns-syntax.parse_ms", b.mean_ms(PARSE));
    put(
        "jns-syntax.parse_mb_per_s",
        ratio(m.parsed_bytes as f64 / 1e6, b.self_ms(PARSE) / 1e3),
    );
    put("jns-types.check_ms", b.mean_ms(CHECK));
    put("jns-vm.lower_ms", b.mean_ms(LOWER));
    put("jns-vm.fused_sites", mean_of(vm, |s| s.fused));
    put("jns-vm.folded_ops", mean_of(vm, |s| s.folded));
    put("jns-vm.exec_ms", b.mean_ms(EXEC));
    put("jns-vm.steps", mean_of(vm, |s| s.steps));
    put(
        "jns-vm.ns_per_step",
        ratio(b.self_ms(EXEC) * 1e6, sum(vm, |s| s.steps)),
    );
    put("jns-vm.calls", mean_of(vm, |s| s.calls));
    put("jns-vm.ic_hits", mean_of(vm, |s| s.ic_hits));
    put("jns-vm.ic_misses", mean_of(vm, |s| s.ic_misses));
    put("jns-vm.ic_hit_ratio", ratio(hits, hits + misses));
    put("jns-vm.quickened", mean_of(vm, |s| s.quickened));
    put("jns-vm.dequickened", mean_of(vm, |s| s.dequickened));
    put("jns-vm.views_explicit", mean_of(vm, |s| s.views_explicit));
    put("jns-vm.views_implicit", mean_of(vm, |s| s.views_implicit));
    put("jns-vm.mask_allocs", mean_of(vm, |s| s.mask_allocs));
    put("jns-eval.allocs", mean_of(vm, |s| s.allocs));
    put("jns-eval.peak_live", mean_of(vm, |s| s.peak_live));
    put("jns-eval.reclaimed", mean_of(vm, |s| s.reclaimed));
    put("jns-eval.gc_runs", mean_of(vm, |s| s.gc_runs));
    put("jns-eval.minor_runs", mean_of(vm, |s| s.minor_runs));
    put("jns-eval.major_runs", mean_of(vm, |s| s.major_runs));
    put("jns-eval.promoted", mean_of(vm, |s| s.promoted));
    put(
        "jns-eval.promoted_per_alloc",
        ratio(sum(vm, |s| s.promoted), sum(vm, |s| s.allocs)),
    );
    put("jns-eval.barrier_hits", mean_of(vm, |s| s.barrier_hits));
    put("jns-eval.gc_minor_pause_ms", per_exec(gc_minor));
    put("jns-eval.gc_major_pause_ms", per_exec(gc_major));
    put("jns-eval.gc_share", ratio(gc_minor + gc_major, exec_total));
    put("jns-eval.treewalk_exec_ms", b.mean_ms(TREEWALK));
    put(
        "jns-eval.treewalk_ns_per_step",
        ratio(b.self_ms(TREEWALK) * 1e6, sum(tw, |s| s.steps)),
    );
    put("jns-serve.queue_wait_p50_ms", p50(&s.queue_us) / 1e3);
    put("jns-serve.queue_wait_p95_ms", p95(&s.queue_us) / 1e3);
    put("jns-serve.exec_p50_ms", p50(&s.exec_us) / 1e3);
    put("jns-serve.exec_p95_ms", p95(&s.exec_us) / 1e3);
    put("jns-serve.queue_high_water", s.queue_high_water as f64);
    put("jns-serve.submit_blocked", s.submit_blocked as f64);
    put(
        "jns-serve.reset_reclaimed",
        ratio(
            s.reset_reclaimed.iter().sum(),
            s.reset_reclaimed.len() as f64,
        ),
    );
    put("jns-serve.worker_heap_limit", s.worker_heap_limit as f64);
    put("jns-serve.pool_spawn_ms", b.mean_ms(POOL_SPAWN));
    put("jns-core.shared_ms", b.mean_ms(SHARED));
    put(
        "jns-obs.trace_overhead_frac",
        ratio(p50(&m.traced_ms), p50(&m.untraced_ms)) - 1.0,
    );
    put("jns-obs.trace_dropped", m.trace_dropped as f64);
    out
}

/// Ends a run's timed phase: keeps the untraced blocks and, in a traced
/// run, derives the per-layer metrics from the spans, checks the trace's
/// hygiene and writes the spans out.
pub fn finish(
    timed: Result<Timed, String>,
    tracer: Option<Tracer>,
    mut m: Measured,
    out: &mut crate::Outcome,
    args: &crate::Args,
) {
    let timed = match timed {
        Ok(t) => t,
        Err(e) => return out.violations.push(e),
    };
    out.blocks = timed.blocks;
    let Some(t) = tracer else {
        return;
    };
    m.traced_ms = timed.traced_ms;
    m.breakdown = crate::spans::breakdown(&t.spans);
    m.untraced_ms = out
        .blocks
        .iter()
        .flat_map(|b| b.latencies_ms.iter().copied())
        .collect();
    hygiene(&m, &mut out.violations);
    out.layers = metrics(&m);
    crate::write_spans(&t, args);
}

/// Fails the run when the trace lost events or its spans do not nest.
fn hygiene(m: &Measured, violations: &mut Vec<String>) {
    if m.trace_dropped > 0 {
        violations.push(format!("{} trace events dropped", m.trace_dropped));
    }
    if m.breakdown.inconsistent_ops > 0 {
        violations.push(format!(
            "{} ops whose self times sum to more than their span",
            m.breakdown.inconsistent_ops
        ));
    }
}
