//! `cold_run`: the `jns run` user path. One op takes one program from
//! source to output, `parse` → `check` → lower + VM, or the tree-walker;
//! a pass runs every corpus program once on each backend.

use crate::layers::{self, Measured, Step, CHECK, EXEC, LOWER, OP, PARSE, TREEWALK};
use crate::programs::{self, Program, Rng};
use crate::spans::Tracer;
use crate::{ms, Args, Outcome};
use jns_core::Backend;
use jns_eval::{Machine, Stats, DEFAULT_MAX_DEPTH};
use jns_obs::TraceBuffer;
use std::time::Instant;

const BACKENDS: [Backend; 2] = [Backend::Vm, Backend::TreeWalk];

/// What one op hands back: printed lines and statistics, or the error.
type OpResult = Result<(Vec<String>, Stats, Option<TraceBuffer>), String>;

/// Source to output for one program on one backend, calling each layer's
/// public entry point; with a tracer, each call gets a span under `root`.
fn op(p: &Program, backend: Backend, mut tr: Option<(&mut Tracer, u64, usize)>) -> OpResult {
    let buf = tr
        .as_ref()
        .map(|(t, _, _)| TraceBuffer::with_origin(t.origin(), layers::TRACE_CAP));
    let mut span = |name: &'static str, t0: Instant| {
        if let Some((t, op, root)) = tr.as_mut() {
            let (s, e) = (t.at(t0), t.at(Instant::now()));
            return Some(t.record(name, *op, Some(*root), s, e));
        }
        None
    };
    let t0 = Instant::now();
    let ast = jns_core::parse(&p.src).map_err(|e| format!("parse: {e}"))?;
    span(PARSE, t0);
    let t0 = Instant::now();
    let checked = jns_types::check_with(&ast, jns_types::CheckOptions::default())
        .map_err(|e| format!("check: {}", jns_core::Error::Type(e)))?;
    span(CHECK, t0);
    match backend {
        Backend::Vm => {
            let t0 = Instant::now();
            let code = jns_vm::compile_with(&checked, jns_vm::CompileOptions { fuse: true });
            span(LOWER, t0);
            let t0 = Instant::now();
            let mut vm = jns_vm::Vm::new(&checked, &code)
                .with_quickening(true)
                .with_max_depth(DEFAULT_MAX_DEPTH);
            if let Some(b) = buf {
                vm.set_trace(b);
            }
            let r = vm.run();
            span(EXEC, t0);
            r.map_err(|e| format!("vm: {e}"))?;
            Ok((std::mem::take(&mut vm.output), vm.stats, vm.take_trace()))
        }
        Backend::TreeWalk => {
            let t0 = Instant::now();
            let mut m = Machine::new(&checked).with_max_depth(DEFAULT_MAX_DEPTH);
            if let Some(b) = buf {
                m.set_trace(b);
            }
            let r = m.run();
            span(TREEWALK, t0);
            r.map_err(|e| format!("tree-walker: {e}"))?;
            Ok((std::mem::take(&mut m.output), m.stats, m.take_trace()))
        }
    }
}

fn label(b: Backend) -> &'static str {
    match b {
        Backend::Vm => "vm",
        Backend::TreeWalk => "treewalk",
    }
}

/// Set-up: generate the corpus, then one untimed pass that must print
/// every expected output.
fn setup(seed: u64) -> Result<Vec<Program>, String> {
    let corpus = programs::cold_corpus(&mut Rng::new(seed));
    for p in &corpus {
        for b in BACKENDS {
            let (out, _, _) =
                op(p, b, None).map_err(|e| format!("{} on {}: {e}", p.name, label(b)))?;
            if Some(&out) != p.expected.as_ref() {
                return Err(format!("{} on {} printed {out:?}", p.name, label(b)));
            }
        }
    }
    Ok(corpus)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let corpus = match layers::time_setup(&mut out.setup_s, || setup(args.seed)) {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(e);
            return out;
        }
    };
    let mut tracer = args.trace.then(Tracer::new);
    let mut m = Measured::default();
    let mut op_id = 0u64;

    // Budgets are checked between whole passes, so every program runs
    // equally often and the op mix does not depend on the run length.
    let step = |step: Step| -> Result<Vec<f64>, String> {
        let Step::Block { traced, budget } = step else {
            return setup(args.seed).map(|_| Vec::new());
        };
        let start = Instant::now();
        let mut lats = Vec::new();
        loop {
            for p in &corpus {
                for b in BACKENDS {
                    let t0 = Instant::now();
                    let (result, root) = if traced {
                        let t = tracer.as_mut().expect("traced runs have a tracer");
                        let root = t.open(OP, op_id, None);
                        (op(p, b, Some((t, op_id, root))), Some(root))
                    } else {
                        (op(p, b, None), None)
                    };
                    let lat = ms(t0.elapsed());
                    let ok = match result {
                        Ok((lines, stats, buf)) => {
                            let key = format!("{}/{}", p.name, label(b));
                            let same = out.guard.check(&key, &stats);
                            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                                t.close(root);
                                let buf = buf.expect("traced ops carry a buffer");
                                m.trace_dropped += buf.dropped();
                                m.parsed_bytes += p.src.len() as u64;
                                let exec = (root + 1..t.spans.len())
                                    .find(|&i| matches!(t.spans[i].name, EXEC | TREEWALK))
                                    .expect("an exec span");
                                layers::attach_gc(t, op_id, exec, buf.events(), |us| {
                                    us as i128 * 1000
                                });
                                match b {
                                    Backend::Vm => m.vm_runs.push(stats),
                                    Backend::TreeWalk => m.tw_runs.push(stats),
                                }
                            }
                            Some(&lines) == p.expected.as_ref() && same
                        }
                        Err(e) => {
                            if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
                                t.close(root);
                            }
                            eprintln!("perfbench: {} on {}: {e}", p.name, label(b));
                            false
                        }
                    };
                    out.attempted += 1;
                    if ok {
                        lats.push(lat);
                    } else {
                        out.failed += 1;
                    }
                    op_id += 1;
                }
            }
            if start.elapsed() >= budget {
                return Ok(lats);
            }
        }
    };
    let timed = layers::run_blocks(args, &mut out.setup_s, step);
    layers::finish(timed, tracer, m, &mut out, args);
    out
}
