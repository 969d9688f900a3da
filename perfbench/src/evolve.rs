//! `evolve`: the §2.4 service evolution on the VM. One op is one
//! `Compiled::run` (a fresh VM) over a program compiled once in set-up.

use crate::layers::{self, Measured, Step, EXEC, LOWER, OP, SETUP};
use crate::programs::{self, Program, Rng};
use crate::spans::{Tracer, SETUP_OP};
use crate::{ms, Args, Outcome};
use jns_core::{Backend, Compiled, Compiler, RunOptions};
use jns_obs::TraceBuffer;
use std::time::Instant;

/// Untimed ops at the end of set-up.
const WARMUP_OPS: usize = 5;

fn compiler() -> Compiler {
    Compiler::default()
        .with_backend(Backend::Vm)
        .with_fusion(true)
        .with_quickening(true)
}

fn setup(prog: &Program, mut tracer: Option<&mut Tracer>) -> Result<Compiled, String> {
    let root = tracer.as_deref_mut().map(|t| t.open(SETUP, SETUP_OP, None));
    let t0 = Instant::now();
    let compiled = compiler()
        .compile(&prog.src)
        .map_err(|e| format!("evolve does not compile: {e}"))?;
    let t1 = Instant::now();
    compiled.bytecode();
    let t2 = Instant::now();
    if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
        layers::record_compile(t, root, t0, t1, compiled.timings());
        let (s, e) = (t.at(t1), t.at(t2));
        t.record(LOWER, SETUP_OP, Some(root), s, e);
    }
    for _ in 0..WARMUP_OPS {
        let r = compiled.run().map_err(|e| format!("evolve warm-up: {e}"))?;
        if Some(&r.output) != prog.expected.as_ref() {
            return Err(format!("evolve warm-up printed {:?}", r.output));
        }
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    Ok(compiled)
}

pub fn run(args: &Args) -> Outcome {
    let prog = programs::evolve(&mut Rng::new(args.seed));
    let mut out = Outcome::default();
    let mut tracer = args.trace.then(Tracer::new);
    let set_up = layers::time_setup(&mut out.setup_s, || setup(&prog, tracer.as_mut()));
    let compiled = match set_up {
        Ok(c) => c,
        Err(e) => {
            out.violations.push(e);
            return out;
        }
    };
    let mut m = Measured {
        parsed_bytes: if args.trace { prog.src.len() as u64 } else { 0 },
        ..Measured::default()
    };
    let mut op_id = 0u64;

    let step = |step: Step| -> Result<Vec<f64>, String> {
        let Step::Block { traced, budget } = step else {
            return setup(&prog, None).map(|_| Vec::new());
        };
        let start = Instant::now();
        let mut lats = Vec::new();
        loop {
            let t0 = Instant::now();
            let (result, exec) = if traced {
                let t = tracer.as_mut().expect("traced runs have a tracer");
                let root = t.open(OP, op_id, None);
                let exec = t.open(EXEC, op_id, Some(root));
                let buf = TraceBuffer::with_origin(t.origin(), layers::TRACE_CAP);
                let r = compiled.run_with(
                    Backend::Vm,
                    RunOptions {
                        trace: Some(buf),
                        sample_stride: None,
                    },
                );
                t.close(exec);
                (r, Some((root, exec)))
            } else {
                (compiled.run(), None)
            };
            let ok = match result {
                Ok(mut r) => {
                    let good = Some(&r.output) == prog.expected.as_ref();
                    let same = out.guard.check("evolve", &r.stats);
                    if let (Some(t), Some((_, exec))) = (tracer.as_mut(), exec) {
                        let buf = r.trace.take().expect("buffer comes back");
                        m.trace_dropped += buf.dropped();
                        layers::attach_gc(t, op_id, exec, buf.events(), |us| us as i128 * 1000);
                        m.vm_runs.push(r.stats);
                    }
                    good && same
                }
                Err(e) => {
                    eprintln!("perfbench: evolve op failed: {e}");
                    false
                }
            };
            if let (Some(t), Some((root, _))) = (tracer.as_mut(), exec) {
                t.close(root);
            }
            let lat = ms(t0.elapsed());
            out.attempted += 1;
            if ok {
                lats.push(lat);
            } else {
                out.failed += 1;
            }
            op_id += 1;
            if start.elapsed() >= budget {
                return Ok(lats);
            }
        }
    };
    let timed = layers::run_blocks(args, &mut out.setup_s, step);
    layers::finish(timed, tracer, m, &mut out, args);
    out
}
